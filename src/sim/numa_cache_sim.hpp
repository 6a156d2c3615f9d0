// The multi-socket spellings of the one coherence simulator. A NumaCacheSim
// is a CacheSim built from a NumaConfig; its stats are SimStats, whose
// remote and directory counters stay zero on one socket. See cache_sim.hpp.
#pragma once

#include "sim/cache_sim.hpp"

namespace pred {

using NumaCacheSim = CacheSim;
using NumaStats = SimStats;

}  // namespace pred
