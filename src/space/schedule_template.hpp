// Decoding of a "cuda"-template Config (TemplateRegistry, built in
// space/template_registry.cpp) into the semantic schedule the hardware
// model consumes. Knob order is part of the contract with the builder.
//
// The template mirrors TVM's direct CUDA schedules:
//   conv2d:      tile_f/tile_y/tile_x are 4-way splits (block, vthread,
//                thread, inner), tile_rc/tile_ry/tile_rx are 2-way reduction
//                splits, plus auto_unroll_max_step and unroll_explicit.
//   depthwise:   tile_c/tile_y/tile_x 4-way, tile_ry/tile_rx 2-way, unroll.
//   dense:       tile_y 4-way over output features, tile_k 2-way over the
//                reduction, plus unroll knobs.
// With these definitions the first VGG-16 conv node has ~2.0x10^8 points and
// the 19 MobileNet-v1 tasks average tens of millions, matching the scales
// quoted in the paper.
#pragma once

#include <cstdint>

#include "ir/workload.hpp"
#include "space/config_space.hpp"

namespace aal {

/// Semantic view of a conv2d / depthwise-conv2d configuration.
/// A 4-way split (a, b, c, d) of an axis maps to: a = blockIdx extent,
/// b = virtual threads, c = threadIdx extent, d = per-thread serial extent.
struct ConvSchedule {
  // Output-channel axis (channel axis for depthwise).
  std::int64_t bf = 1, vf = 1, tf = 1, fi = 1;
  // Output row axis.
  std::int64_t by = 1, vy = 1, ty = 1, yi = 1;
  // Output column axis.
  std::int64_t bx = 1, vx = 1, tx = 1, xi = 1;
  // Reduction splits (rc* is 1/1 for depthwise).
  std::int64_t rco = 1, rci = 1;
  std::int64_t ryo = 1, ryi = 1;
  std::int64_t rxo = 1, rxi = 1;
  std::int64_t auto_unroll_max_step = 0;
  bool unroll_explicit = false;

  std::int64_t threads_per_block() const { return tf * ty * tx; }
  std::int64_t num_blocks() const { return bf * by * bx; }
  std::int64_t vthreads() const { return vf * vy * vx; }
  /// Output elements each thread computes (accumulator registers).
  std::int64_t per_thread_outputs() const {
    return vf * vy * vx * fi * yi * xi;
  }
  /// Output tile extents computed by one block.
  std::int64_t tile_f() const { return vf * tf * fi; }
  std::int64_t tile_y() const { return vy * ty * yi; }
  std::int64_t tile_x() const { return vx * tx * xi; }
};

/// Semantic view of a dense configuration. tile_y splits out_features,
/// tile_k splits the reduction.
struct DenseSchedule {
  std::int64_t bo = 1, vo = 1, to = 1, oi = 1;  // out_features split
  std::int64_t ko = 1, ki = 1;                  // reduction split
  std::int64_t auto_unroll_max_step = 0;
  bool unroll_explicit = false;

  std::int64_t threads_per_block() const { return to; }
  std::int64_t num_blocks() const { return bo; }
  std::int64_t per_thread_outputs() const { return vo * oi; }
};

/// Decodes a conv/depthwise config; requires the space the "cuda" template
/// built for the same workload.
ConvSchedule decode_conv_schedule(const Workload& workload,
                                  const ConfigSpace& space,
                                  const Config& config);

/// Decodes a dense config.
DenseSchedule decode_dense_schedule(const Workload& workload,
                                    const ConfigSpace& space,
                                    const Config& config);

}  // namespace aal
