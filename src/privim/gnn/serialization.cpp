#include "privim/gnn/serialization.h"

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "privim/common/atomic_file.h"

namespace privim {

Status WriteGnnModel(const GnnModel& model, std::ostream& out) {
  const GnnConfig& config = model.config();
  out << "privim-model v1\n";
  out << "kind " << GnnKindToString(config.kind) << "\n";
  out << "input_dim " << config.input_dim << "\n";
  out << "hidden_dim " << config.hidden_dim << "\n";
  out << "num_layers " << config.num_layers << "\n";
  char slope[64];
  std::snprintf(slope, sizeof(slope), "%a", config.leaky_slope);
  out << "leaky_slope " << slope << "\n";
  out << "params " << model.parameters().size() << "\n";
  for (const Variable& param : model.parameters()) {
    const Tensor& value = param.value();
    out << value.rows() << " " << value.cols() << "\n";
    char buffer[64];
    for (int64_t i = 0; i < value.size(); ++i) {
      // Hex floats round-trip bit-exactly through text.
      std::snprintf(buffer, sizeof(buffer), "%a", value.data()[i]);
      out << buffer << (i + 1 == value.size() ? "\n" : " ");
    }
    if (value.size() == 0) out << "\n";
  }
  if (!out) return Status::IOError("model serialization stream write failed");
  return Status::OK();
}

Status SaveGnnModel(const GnnModel& model, const std::string& path) {
  std::ostringstream encoded;
  PRIVIM_RETURN_NOT_OK(WriteGnnModel(model, encoded));
  return AtomicWriteFile(path, encoded.view());
}

namespace {

/// The next whitespace-separated token; IOError naming `what` at the end
/// of the stream.
Result<std::string> NextToken(std::istream& in, const char* what) {
  std::string token;
  if (!(in >> token)) {
    return Status::IOError(std::string("truncated model file: missing ") +
                           what);
  }
  return token;
}

Status BadToken(const char* what, const std::string& token) {
  return Status::IOError(std::string("bad ") + what + " in model file: " +
                         token);
}

/// The next token as a whole int64_t; IOError on anything else (junk
/// after the digits, overflow).
Result<int64_t> ReadInt(std::istream& in, const char* what) {
  Result<std::string> token = NextToken(in, what);
  if (!token.ok()) return token.status();
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(token->c_str(), &end, 10);
  if (end != token->c_str() + token->size() || errno == ERANGE) {
    return BadToken(what, token.value());
  }
  return static_cast<int64_t>(value);
}

/// The next token as a whole float: hex (as written) or decimal, inf and
/// nan included, out-of-range values rounded to inf or zero as strtof
/// does.
Result<float> ReadFloat(std::istream& in, const char* what) {
  Result<std::string> token = NextToken(in, what);
  if (!token.ok()) return token.status();
  char* end = nullptr;
  const float value = std::strtof(token->c_str(), &end);
  if (end != token->c_str() + token->size()) {
    return BadToken(what, token.value());
  }
  return value;
}

/// IOError unless the next token is `key`.
Status ExpectKey(std::istream& in, const char* key) {
  Result<std::string> name = NextToken(in, key);
  if (!name.ok()) return name.status();
  if (name.value() != key) {
    return Status::IOError(std::string("expected key '") + key +
                           "' in model file");
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<GnnModel>> ReadGnnModel(std::istream& in) {
  std::string magic, version;
  if (!(in >> magic >> version) || magic != "privim-model" ||
      version != "v1") {
    return Status::IOError("not a privim-model v1 file");
  }

  GnnConfig config;
  PRIVIM_RETURN_NOT_OK(ExpectKey(in, "kind"));
  Result<std::string> kind_name = NextToken(in, "kind");
  if (!kind_name.ok()) return kind_name.status();
  Result<GnnKind> kind = GnnKindFromString(kind_name.value());
  if (!kind.ok()) return Status::IOError(kind.status().message());
  config.kind = kind.value();
  for (const auto& [key, field] :
       {std::pair{"input_dim", &config.input_dim},
        std::pair{"hidden_dim", &config.hidden_dim},
        std::pair{"num_layers", &config.num_layers}}) {
    PRIVIM_RETURN_NOT_OK(ExpectKey(in, key));
    Result<int64_t> number = ReadInt(in, key);
    if (!number.ok()) return number.status();
    *field = number.value();
  }
  PRIVIM_RETURN_NOT_OK(ExpectKey(in, "leaky_slope"));
  Result<float> slope = ReadFloat(in, "leaky_slope");
  if (!slope.ok()) return slope.status();
  config.leaky_slope = slope.value();
  PRIVIM_RETURN_NOT_OK(ExpectKey(in, "params"));
  Result<int64_t> param_count = ReadInt(in, "params");
  if (!param_count.ok()) return param_count.status();

  // The header must describe a layout before anything is allocated, and
  // each tensor grows only as its values arrive, so a header that claims
  // more than the stream holds fails at the stream's end instead of
  // reserving what it claims.
  Result<ParamLayout> layout = ParamLayout::Of(config);
  if (!layout.ok()) {
    return Status::IOError("bad model file header: " +
                           layout.status().message());
  }
  if (param_count.value() != layout->size()) {
    return Status::IOError("parameter count mismatch in model file");
  }
  std::vector<Variable> params;
  for (int64_t p = 0; p < layout->size(); ++p) {
    const ParamSpec spec = layout->at(p);
    Result<int64_t> rows = ReadInt(in, "parameter rows");
    if (!rows.ok()) return rows.status();
    Result<int64_t> cols = ReadInt(in, "parameter cols");
    if (!cols.ok()) return cols.status();
    if (rows.value() != spec.rows || cols.value() != spec.cols) {
      return Status::IOError("parameter shape mismatch in model file");
    }
    std::vector<float> values;
    for (int64_t i = 0; i < spec.rows * spec.cols; ++i) {
      Result<float> value = ReadFloat(in, "parameter value");
      if (!value.ok()) return value.status();
      values.push_back(value.value());
    }
    params.emplace_back(
        Tensor::FromVector(spec.rows, spec.cols, std::move(values)),
        /*requires_grad=*/true);
  }
  return std::unique_ptr<GnnModel>(
      new GnnModel(layout.value(), std::move(params)));
}

Result<std::unique_ptr<GnnModel>> LoadGnnModel(const std::string& path) {
  std::ifstream file(path);
  if (!file) return Status::IOError("cannot open: " + path);
  Result<std::unique_ptr<GnnModel>> model = ReadGnnModel(file);
  if (!model.ok()) {
    return Status::IOError(model.status().message() + " (" + path + ")");
  }
  return model;
}

}  // namespace privim
