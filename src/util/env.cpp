#include "util/env.h"

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace psoodb::util {

int EnvInt(const char* name, int def) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return def;
  errno = 0;
  char* end = nullptr;
  const long n = std::strtol(v, &end, 10);
  if (errno != 0 || end == v || *end != '\0' || n < INT_MIN || n > INT_MAX) {
    std::fprintf(stderr,
                 "warning: %s=\"%s\" is not an integer; using default %d\n",
                 name, v, def);
    return def;
  }
  return static_cast<int>(n);
}

double EnvDouble(const char* name, double def) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return def;
  errno = 0;
  char* end = nullptr;
  const double x = std::strtod(v, &end);
  if (errno != 0 || end == v || *end != '\0' || !std::isfinite(x)) {
    std::fprintf(stderr,
                 "warning: %s=\"%s\" is not a number; using default %g\n",
                 name, v, def);
    return def;
  }
  return x;
}

}  // namespace psoodb::util
