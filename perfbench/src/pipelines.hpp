// The three workloads of the repository benchmark (see perfbench/NOTES.md).
#pragma once

#include <memory>

#include "bench.hpp"

namespace perfbench {

std::unique_ptr<Pipeline> make_replay();
std::unique_ptr<Pipeline> make_ir();
std::unique_ptr<Pipeline> make_offline();

}  // namespace perfbench
