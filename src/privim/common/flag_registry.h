// Declarative command-line flag registry.
//
// The Flags class (flags.h) is a permissive token-to-string map: it cannot
// reject a typo'd flag, type-check a value, or generate help text. Front
// ends (privim_cli, privim_serve) therefore declare their flags in a
// FlagRegistry — name, type, default, help line — and parse through it:
//
//   FlagRegistry registry;
//   registry.AddString("graph", "", "edge-list file to load")
//           .AddInt("subgraph-size", 25, "RWR subgraph size n")
//           .AddBool("undirected", false, "treat edges as undirected");
//   Result<ParsedFlags> parsed = registry.Parse(argc, argv);
//
// Every flag has one spelling. Parse rejects unknown flags and malformed
// values with InvalidArgument and yields a plain Flags view keyed by flag
// name. HelpText() renders the registry as the `--help` output, so the
// docs can never drift from the parser.

#ifndef PRIVIM_COMMON_FLAG_REGISTRY_H_
#define PRIVIM_COMMON_FLAG_REGISTRY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "privim/common/flags.h"
#include "privim/common/status.h"

namespace privim {

enum class FlagType { kBool, kInt, kDouble, kString };

const char* FlagTypeToString(FlagType type);

/// One declared flag.
struct FlagSpec {
  std::string name;           ///< spelling without "--"
  FlagType type = FlagType::kString;
  std::string default_value;  ///< rendered in help; "" = no default shown
  std::string help;           ///< one-line description
};

/// Outcome of FlagRegistry::Parse.
struct ParsedFlags {
  /// Values keyed by flag name.
  Flags flags;
  /// True when --help / -h was given; callers should print HelpText()
  /// and exit 0 without looking at other flags.
  bool help_requested = false;
};

class FlagRegistry {
 public:
  FlagRegistry& AddBool(const std::string& name, bool def,
                        const std::string& help);
  FlagRegistry& AddInt(const std::string& name, int64_t def,
                       const std::string& help);
  FlagRegistry& AddDouble(const std::string& name, double def,
                          const std::string& help);
  FlagRegistry& AddString(const std::string& name, const std::string& def,
                          const std::string& help);

  /// Merges every spec of `other` into this registry (shared flag blocks:
  /// threads/metrics-out/seed are declared once and reused).
  FlagRegistry& Include(const FlagRegistry& other);

  const std::vector<FlagSpec>& specs() const { return specs_; }

  /// Parses `argv[1..)` in the `--name value` / `--name=value` / bare
  /// `--bool-name` grammar of Flags. Unknown flags, missing values for
  /// non-bool flags, and values that do not parse as the declared type are
  /// InvalidArgument naming the offending flag.
  Result<ParsedFlags> Parse(int argc, char** argv) const;

  /// Generated usage text: one aligned row per flag with type, default and
  /// help.
  std::string HelpText(const std::string& usage_line) const;

 private:
  FlagRegistry& Add(FlagSpec spec);
  const FlagSpec* Find(const std::string& name) const;

  std::vector<FlagSpec> specs_;
};

}  // namespace privim

#endif  // PRIVIM_COMMON_FLAG_REGISTRY_H_
