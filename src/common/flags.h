#ifndef GSTREAM_COMMON_FLAGS_H_
#define GSTREAM_COMMON_FLAGS_H_

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

namespace gstream {

/// Minimal `--key=value` / `--switch` command-line parser for the bench and
/// example binaries. Unknown flags are collected so benchmark binaries can
/// coexist with google-benchmark's own flags.
class Flags {
 public:
  /// Parses argv; flags look like `--name=value` or bare `--name` (= "true").
  static Flags Parse(int argc, char** argv);

  bool Has(const std::string& name) const { return values_.count(name) > 0; }

  std::string GetString(const std::string& name, const std::string& def) const;
  int64_t GetInt(const std::string& name, int64_t def) const;
  double GetDouble(const std::string& name, double def) const;
  bool GetBool(const std::string& name, bool def) const;

  /// Strictly parsed integer in [min, 2^63): a present flag that is not a
  /// number, has trailing junk, or is below `min` prints a clear error to
  /// stderr and exits with status 2 (config typos like `--batch=0` or
  /// `--threads=-1` must not silently run a degenerate setup). Absent flags
  /// return `def` unchecked.
  int64_t GetIntAtLeast(const std::string& name, int64_t def, int64_t min) const;

  /// GetIntAtLeast with min = 1: window sizes, thread counts, scales.
  int64_t GetPositiveInt(const std::string& name, int64_t def) const {
    return GetIntAtLeast(name, def, 1);
  }

  /// Positional (non-flag) arguments, in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// For strict binaries, which exit 2 on a flag they do not read: the
  /// first present flag (in name order) that is not in `known`, or "" when
  /// every flag is known.
  std::string FirstUnknown(std::initializer_list<const char*> known) const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace gstream

#endif  // GSTREAM_COMMON_FLAGS_H_
