// The benchmark's workloads; each returns the report main() prints.
#pragma once

#include "measure.hpp"

namespace perfbench {

Report run_wire_hot(const Args& args);
Report run_shard_cold(const Args& args);
Report run_population_congested(const Args& args);

}  // namespace perfbench
