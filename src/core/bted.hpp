// Batch Transductive Experimental Design — Algorithm 2 of the paper.
//
// B batches are drawn uniformly from the configuration space (|V_b| = M
// each), TED selects m diverse configurations from each batch, the
// per-batch picks are unioned (<= B*m points) and a final TED pass over the
// union returns the m-point initial set. The batch TEDs run on the shared
// thread pool, and each TED (batch and final) splits its kernel build and
// per-pick mat-vec over row blocks on it too; the result is bitwise the
// serial one (reference::bted_sample in tests/reference). The randomness is
// what makes the method scale to 10^8-point spaces: TED itself only ever
// sees M-point matrices. Paper defaults: (mu=0.1, M=500, m=64, B=10).
#pragma once

#include <vector>

#include "core/ted.hpp"
#include "measure/tuning_task.hpp"
#include "space/config_space.hpp"
#include "support/rng.hpp"
#include "tuner/tuner.hpp"

namespace aal {

struct BtedParams {
  double mu = 0.1;
  std::int64_t batch_sample_size = 500;  // M
  int num_select = 64;                   // m
  int num_batches = 10;                  // B
  TedKernel kernel = TedKernel::kRbf;  // see TedParams::kernel
};

/// Runs BTED over a task's configuration space and returns the initial set
/// (size min(m, space size)).
std::vector<Config> bted_sample(const TuningTask& task,
                                const BtedParams& params, Rng& rng);

/// Adapter so BTED plugs into any tuner's initialization stage
/// (XgbTuner / AdvancedActiveLearningTuner). The sampler's `m` argument
/// overrides params.num_select at call time.
InitSampler bted_init_sampler(BtedParams params = {});

}  // namespace aal
