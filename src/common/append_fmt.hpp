// printf-style append to a std::string: the formatter behind every text
// report. One call formats at most 511 bytes; report lines are far shorter.
#pragma once

#include <cstdarg>
#include <cstdio>
#include <string>

namespace pred {

__attribute__((format(printf, 2, 3))) inline void append_fmt(
    std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  out += buf;
}

}  // namespace pred
