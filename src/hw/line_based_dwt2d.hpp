// Line-based 2-D DWT (after the paper's reference [6], Dillen et al.):
// instead of the full-frame memory of the figure-4 system, rows stream
// through a row transform and a bank of per-column streaming lifting
// engines, so only a handful of lines is ever buffered.  Functionally
// identical to the batch transform; the win is memory:
//   figure-4 system:  W x H coefficient words of frame memory
//   line-based:       ~7 x W words (two current rows + column state)
#pragma once

#include <cstdint>

#include "dsp/plane.hpp"

namespace dwt::hw {

struct LineBasedStats {
  std::uint64_t rows_processed = 0;    ///< row-transform passes
  std::size_t line_buffer_words = 0;   ///< peak on-chip buffer requirement
  std::size_t frame_memory_words = 0;  ///< what the figure-4 system needs
};

/// One-octave forward transform of an int32 plane (pixels already
/// DC-level-shifted), producing the packed LL|HL / LH|HH layout in place.
/// Any non-zero dimensions are accepted: odd widths/heights split as
/// ceil(n/2) low / floor(n/2) high rows and columns, and a single-row plane
/// takes the JPEG2000 single-sample vertical pass-through.  Bit-identical to
/// dsp::dwt2d_forward(Method::kLiftingFixed, plane.view(), 1).
LineBasedStats line_based_forward_octave(dsp::Plane<std::int32_t>& plane);

}  // namespace dwt::hw
