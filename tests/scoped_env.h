// Test helper: sets (or, with nullptr, unsets) an environment variable for
// one scope and restores the previous value afterwards.

#ifndef PSOODB_TESTS_SCOPED_ENV_H_
#define PSOODB_TESTS_SCOPED_ENV_H_

#include <cstdlib>
#include <string>

namespace psoodb {

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    had_old_ = old != nullptr;
    if (value != nullptr) {
      ::setenv(name, value, /*overwrite=*/1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_.c_str(), saved_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
  std::string saved_;
  bool had_old_ = false;
};

}  // namespace psoodb

#endif  // PSOODB_TESTS_SCOPED_ENV_H_
