/// \file env.h
/// Validated environment-variable overrides. Unlike atoi/atol/atof, a value
/// that is not a whole number ("lots") or carries trailing junk ("4k") does
/// not silently become 0 or 4: it keeps the caller's default and prints a
/// warning on stderr. Unset or empty variables return the default quietly.

#ifndef PSOODB_UTIL_ENV_H_
#define PSOODB_UTIL_ENV_H_

namespace psoodb::util {

/// Reads `name` as a base-10 int over the whole string. Out-of-range,
/// garbage and trailing junk warn and return `def`.
int EnvInt(const char* name, int def);

/// Reads `name` as a finite double over the whole string (strtod syntax).
/// Garbage, trailing junk, overflow, inf and nan warn and return `def`.
double EnvDouble(const char* name, double def);

}  // namespace psoodb::util

#endif  // PSOODB_UTIL_ENV_H_
