// Error type used for configuration and usage errors across the library.
//
// Following the Core Guidelines (E.2) configuration errors throw; internal
// invariants use assert().  Integrity-verification *failures* are not errors:
// they are modelled results and are reported through return values so that
// the attack/defense experiments can observe them.
#pragma once

#include <stdexcept>
#include <string>

namespace seda {

class Seda_error : public std::runtime_error {
public:
    explicit Seda_error(const std::string& what) : std::runtime_error(what) {}
};

/// Throws Seda_error when `cond` is false.  Used to validate user-supplied
/// configuration at module boundaries.
inline void require(bool cond, const std::string& what)
{
    if (!cond) throw Seda_error(what);
}

/// String literals bind here, so a passing check builds no std::string:
/// per-unit checks on the data path (Secure_memory batches, serve submit)
/// would otherwise heap-allocate their message on every call.
inline void require(bool cond, const char* what)
{
    if (!cond) throw Seda_error(what);
}

}  // namespace seda
