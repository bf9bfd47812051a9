#include "privim/common/flag_registry.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string_view>

namespace privim {

const char* FlagTypeToString(FlagType type) {
  switch (type) {
    case FlagType::kBool:
      return "bool";
    case FlagType::kInt:
      return "int";
    case FlagType::kDouble:
      return "float";
    case FlagType::kString:
      return "string";
  }
  return "?";
}

FlagRegistry& FlagRegistry::Add(FlagSpec spec) {
  specs_.push_back(std::move(spec));
  return *this;
}

FlagRegistry& FlagRegistry::AddBool(const std::string& name, bool def,
                                    const std::string& help) {
  return Add({name, FlagType::kBool, def ? "true" : "false", help});
}

FlagRegistry& FlagRegistry::AddInt(const std::string& name, int64_t def,
                                   const std::string& help) {
  return Add({name, FlagType::kInt, std::to_string(def), help});
}

FlagRegistry& FlagRegistry::AddDouble(const std::string& name, double def,
                                      const std::string& help) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%g", def);
  return Add({name, FlagType::kDouble, buf, help});
}

FlagRegistry& FlagRegistry::AddString(const std::string& name,
                                      const std::string& def,
                                      const std::string& help) {
  return Add({name, FlagType::kString, def, help});
}

FlagRegistry& FlagRegistry::Include(const FlagRegistry& other) {
  for (const FlagSpec& spec : other.specs_) specs_.push_back(spec);
  return *this;
}

const FlagSpec* FlagRegistry::Find(const std::string& name) const {
  for (const FlagSpec& spec : specs_) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

namespace {

Status CheckValue(const FlagSpec& spec, const std::string& value) {
  switch (spec.type) {
    case FlagType::kBool:
      if (value == "true" || value == "false" || value == "1" ||
          value == "0" || value == "yes" || value == "no") {
        return Status::OK();
      }
      return Status::InvalidArgument("--" + spec.name +
                                     " expects true/false, got \"" + value +
                                     "\"");
    case FlagType::kInt: {
      if (value.empty()) {
        return Status::InvalidArgument("--" + spec.name +
                                       " expects an integer");
      }
      char* end = nullptr;
      (void)std::strtoll(value.c_str(), &end, 10);
      if (end == nullptr || *end != '\0') {
        return Status::InvalidArgument("--" + spec.name +
                                       " expects an integer, got \"" + value +
                                       "\"");
      }
      return Status::OK();
    }
    case FlagType::kDouble: {
      if (value.empty()) {
        return Status::InvalidArgument("--" + spec.name +
                                       " expects a number");
      }
      char* end = nullptr;
      (void)std::strtod(value.c_str(), &end);
      if (end == nullptr || *end != '\0') {
        return Status::InvalidArgument("--" + spec.name +
                                       " expects a number, got \"" + value +
                                       "\"");
      }
      return Status::OK();
    }
    case FlagType::kString:
      return Status::OK();
  }
  return Status::Internal("unreachable flag type");
}

}  // namespace

Result<ParsedFlags> FlagRegistry::Parse(int argc, char** argv) const {
  ParsedFlags parsed;
  std::map<std::string, std::string> values;

  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (arg == "-h" || arg == "--help") {
      parsed.help_requested = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0) {
      return Status::InvalidArgument("unexpected positional argument \"" +
                                     std::string(arg) +
                                     "\" (flags are --name value)");
    }
    arg.remove_prefix(2);

    std::string name;
    std::string value;
    bool has_value = false;
    const size_t eq = arg.find('=');
    if (eq != std::string_view::npos) {
      name = std::string(arg.substr(0, eq));
      value = std::string(arg.substr(eq + 1));
      has_value = true;
    } else {
      name = std::string(arg);
    }

    const FlagSpec* spec = Find(name);
    if (spec == nullptr) {
      return Status::InvalidArgument("unknown flag --" + name +
                                     " (see --help)");
    }

    if (!has_value) {
      // `--name value` consumes the next token unless it is another flag;
      // a bare flag is only legal for booleans.
      if (i + 1 < argc &&
          std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[i + 1];
        ++i;
      } else if (spec->type == FlagType::kBool) {
        value = "true";
      } else {
        return Status::InvalidArgument("--" + name + " requires a value");
      }
    }

    PRIVIM_RETURN_NOT_OK(CheckValue(*spec, value));
    values[spec->name] = value;
  }

  parsed.flags = Flags(std::move(values));
  return parsed;
}

std::string FlagRegistry::HelpText(const std::string& usage_line) const {
  size_t name_width = 0;
  for (const FlagSpec& spec : specs_) {
    name_width = std::max(name_width, spec.name.size());
  }

  std::string out = usage_line;
  if (!out.empty() && out.back() != '\n') out += '\n';
  out += "\nFlags:\n";
  for (const FlagSpec& spec : specs_) {
    out += "  --" + spec.name;
    out.append(name_width - spec.name.size() + 2, ' ');
    out += spec.help;
    out += " [";
    out += FlagTypeToString(spec.type);
    if (!spec.default_value.empty()) {
      out += ", default " + spec.default_value;
    }
    out += "]\n";
  }
  return out;
}

}  // namespace privim
