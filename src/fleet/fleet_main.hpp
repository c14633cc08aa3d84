/**
 * @file
 * Shared main() body for fleet binaries.
 *
 * bench/fleet_sweep.cpp and bench/fleet_soak.cpp are thin wrappers
 * around fleetMain(): declare options (with per-binary default
 * overrides), parse, then either run as a worker (--fleet-worker 1,
 * the re-exec'd child path) or drive the whole sweep as supervisor and
 * render the merged table / CSV / signed manifest. Keeping the
 * dispatch in one function guarantees the supervisor's
 * `/proc/self/exe` re-exec lands in a binary that understands the
 * worker protocol, whichever fleet binary it is.
 */

#ifndef VPSIM_FLEET_FLEET_MAIN_HPP
#define VPSIM_FLEET_FLEET_MAIN_HPP

#include <map>
#include <string>

namespace vpsim
{
namespace fleet
{

/**
 * Full fleet binary entry point; returns the process exit code.
 *
 * @param description --help banner for this binary.
 * @param defaults Per-binary option default overrides (soak grids).
 */
int fleetMain(int argc, const char *const *argv,
              const std::string &description,
              const std::map<std::string, std::string> &defaults = {});

} // namespace fleet
} // namespace vpsim

#endif // VPSIM_FLEET_FLEET_MAIN_HPP
