// Former names of the executor and its config, kept only because the
// benchmark harness (perfbench/) still spells them and is edited only
// together with a benchmark change. They are deleted with that change;
// new code uses Executor and ExecutorConfig.
#ifndef CEDR_ENGINE_PARALLEL_H_
#define CEDR_ENGINE_PARALLEL_H_

#include "engine/executor.h"

namespace cedr {

using ParallelConfig = ExecutorConfig;
using ParallelExecutor = Executor;

}  // namespace cedr

#endif  // CEDR_ENGINE_PARALLEL_H_
