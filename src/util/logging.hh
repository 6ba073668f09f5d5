/**
 * @file
 * Error-reporting helpers, in the spirit of gem5's fatal()/panic().
 *
 * fatal() is for user-caused conditions (bad configuration, capacity
 * exceeded); panic() is for internal invariant violations.
 */

#ifndef PIMSTM_UTIL_LOGGING_HH
#define PIMSTM_UTIL_LOGGING_HH

#include <sstream>
#include <stdexcept>
#include <string>

namespace pimstm
{

/** Thrown on user-caused errors (e.g. a WRAM allocation that cannot fit). */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg)
        : std::runtime_error("fatal: " + msg)
    {}
};

/**
 * The FatalError of a placement that does not fit in simulated memory
 * (e.g. WRAM metadata): the paper's "not runnable" configurations,
 * which sweeps print as n/a instead of failing.
 */
class PlacementError : public FatalError
{
  public:
    using FatalError::FatalError;
};

/** Thrown on internal invariant violations (simulator bugs). */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg)
        : std::logic_error("panic: " + msg)
    {}
};

namespace detail
{

inline void
formatInto(std::ostringstream &)
{}

template <typename T, typename... Rest>
void
formatInto(std::ostringstream &os, const T &v, const Rest &...rest)
{
    os << v;
    formatInto(os, rest...);
}

} // namespace detail

/** Abort the current operation due to a user-level error. */
template <typename... Args>
[[noreturn]] void
fatal(const Args &...args)
{
    std::ostringstream os;
    detail::formatInto(os, args...);
    throw FatalError(os.str());
}

/** Abort the current operation: a placement does not fit. */
template <typename... Args>
[[noreturn]] void
fatalPlacement(const Args &...args)
{
    std::ostringstream os;
    detail::formatInto(os, args...);
    throw PlacementError(os.str());
}

/** Abort due to an internal bug. */
template <typename... Args>
[[noreturn]] void
panic(const Args &...args)
{
    std::ostringstream os;
    detail::formatInto(os, args...);
    throw PanicError(os.str());
}

/** Like assert but always on; raises PanicError with a message. */
template <typename... Args>
void
panicIf(bool cond, const Args &...args)
{
    if (cond)
        panic(args...);
}

/** Raise FatalError when @p cond holds. */
template <typename... Args>
void
fatalIf(bool cond, const Args &...args)
{
    if (cond)
        fatal(args...);
}

} // namespace pimstm

#endif // PIMSTM_UTIL_LOGGING_HH
