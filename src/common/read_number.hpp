// The readers behind every numeric command-line flag (predator-cli and its
// analyze subcommand). A value must fill the whole string: strtoull alone
// skips spaces, accepts a sign (wrapping "-1" to 2^64-1) and saturates on
// overflow; atof accepts "nan" and "0.5junk".
#pragma once

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>

namespace pred {

/// A base-10 unsigned integer in [lo, hi] with nothing before or after it.
inline bool read_unsigned(const std::string& s, std::uint64_t lo,
                          std::uint64_t hi, std::uint64_t* out) {
  if (s.empty() || s[0] < '0' || s[0] > '9') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno == ERANGE || *end != '\0' || v < lo || v > hi) return false;
  *out = v;
  return true;
}

/// A finite number that fills the whole string.
inline bool read_finite(const std::string& s, double* out) {
  char* end = nullptr;
  *out = std::strtod(s.c_str(), &end);
  return !s.empty() && *end == '\0' && std::isfinite(*out);
}

}  // namespace pred
