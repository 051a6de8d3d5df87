// vmmx_lint-fixture: rule=env-discipline path=src/harness/sweep_tuning.cc
// Environment read bypassing env.hh: no validation, no junk warning,
// and strtoul silently wraps negative values.
#include <cstdlib>

#include "common/types.hh"

namespace vmmx
{

unsigned
sweepChunkOverride()
{
    const char *v = std::getenv("VMMX_UNIT_CHUNK");
    if (!v)
        return 0;
    return unsigned(std::strtoul(v, nullptr, 10));
}

} // namespace vmmx
