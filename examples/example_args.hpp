// Argument parsing and the error path shared by the example programs and
// afmm_cli: a malformed or out-of-range argument is rejected with a message
// naming it, and an escaping exception becomes "error: <what>" plus a usage
// line on stderr and exit code 2 -- never an abort.
#pragma once

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

namespace afmm::example {

// `text` as a whole base-10 integer; throws std::invalid_argument naming
// `what` for an empty string, trailing characters or overflow.
inline long parse_long(const char* text, const std::string& what) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE)
    throw std::invalid_argument(what + " must be an integer, got '" + text +
                                "'");
  return v;
}

// Positional argument `index` as an int >= 1, or `fallback` when absent.
inline int positive_arg(int argc, char** argv, int index,
                        const std::string& what, int fallback) {
  if (index >= argc) return fallback;
  const long v = parse_long(argv[index], what);
  if (v < 1 || v > INT_MAX)
    throw std::invalid_argument(what + " must be in [1, " +
                                std::to_string(INT_MAX) + "], got " +
                                argv[index]);
  return static_cast<int>(v);
}

// Runs `body`; an exception it throws is reported as described above.
template <class Body>
int guarded_main(const char* usage, Body&& body) {
  try {
    return body();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\nusage: %s\n", e.what(), usage);
    return 2;
  }
}

}  // namespace afmm::example
