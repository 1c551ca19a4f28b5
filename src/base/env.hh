/**
 * @file
 * Environment-variable configuration knobs shared by tests, examples
 * and benches.
 */

#ifndef MDP_BASE_ENV_HH
#define MDP_BASE_ENV_HH

#include <string>

namespace mdp
{

/** Read a double env var with a default; malformed values fall back. */
double envDouble(const char *name, double def);

/** Read an integer env var with a default. */
long envLong(const char *name, long def);

/** Read a string env var with a default. */
std::string envString(const char *name, const std::string &def);

/**
 * Global trace-length scale factor (env MDP_SCALE, default 1.0).
 * Workload generators multiply their iteration counts by this; the
 * benches honor it so CI can run quickly and a full run can be longer.
 */
double traceScale();

} // namespace mdp

#endif // MDP_BASE_ENV_HH
