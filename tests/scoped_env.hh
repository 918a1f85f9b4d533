/**
 * @file
 * Scoped environment-variable override for tests that exercise the
 * EV8_* runtime knobs (EV8_FUSED_LANES, EV8_SIMD, ...).
 */

#ifndef EV8_TESTS_SCOPED_ENV_HH
#define EV8_TESTS_SCOPED_ENV_HH

#include <cstdlib>
#include <string>

namespace ev8
{

/** Sets an environment variable for one scope, restoring on exit.
 *  A nullptr value unsets the variable for the scope. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        if (const char *old = std::getenv(name))
            saved_ = old;
        else
            hadValue_ = false;
        if (value)
            ::setenv(name, value, /*overwrite=*/1);
        else
            ::unsetenv(name);
    }

    ~ScopedEnv()
    {
        if (hadValue_)
            ::setenv(name_.c_str(), saved_.c_str(), 1);
        else
            ::unsetenv(name_.c_str());
    }

    ScopedEnv(const ScopedEnv &) = delete;
    ScopedEnv &operator=(const ScopedEnv &) = delete;

  private:
    std::string name_;
    std::string saved_;
    bool hadValue_ = true;
};

} // namespace ev8

#endif // EV8_TESTS_SCOPED_ENV_HH
