#include "base/env.hh"

#include <cstdlib>

namespace mdp
{

double
envDouble(const char *name, double def)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return def;
    char *end = nullptr;
    double parsed = std::strtod(v, &end);
    return (end && *end == '\0') ? parsed : def;
}

long
envLong(const char *name, long def)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return def;
    char *end = nullptr;
    long parsed = std::strtol(v, &end, 10);
    return (end && *end == '\0') ? parsed : def;
}

std::string
envString(const char *name, const std::string &def)
{
    const char *v = std::getenv(name);
    return v && *v ? std::string(v) : def;
}

double
traceScale()
{
    double s = envDouble("MDP_SCALE", 1.0);
    return s > 0.0 ? s : 1.0;
}

} // namespace mdp
