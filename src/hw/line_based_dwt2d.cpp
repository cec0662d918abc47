#include "hw/line_based_dwt2d.hpp"

#include <stdexcept>
#include <vector>

#include "dsp/dwt1d.hpp"
#include "dsp/fir_filter.hpp"
#include "dsp/lifting_ladder.hpp"
#include "dsp/streaming_lifting.hpp"

namespace dwt::hw {
namespace {

/// Guard row pairs fed before/after the payload (vertical mirror extension
/// plus pipeline flush), matching the 1-D streaming harness.
constexpr std::ptrdiff_t kGuardRowPairs = 4;

}  // namespace

LineBasedStats line_based_forward_octave(dsp::Plane<std::int32_t>& plane) {
  const std::size_t w = plane.width();
  const std::size_t h = plane.height();
  if (w == 0 || h == 0) {
    throw std::invalid_argument(
        "line_based_forward_octave: non-zero dimensions required");
  }
  LineBasedStats stats;
  stats.frame_memory_words = w * h;

  // In a real line-based system the source rows arrive as a stream (e.g.
  // from a sensor); model that by reading from a pristine copy while the
  // transformed rows are written out.
  const dsp::Plane<std::int32_t> source = plane;
  // The row transform: one source row through the fixed-point ladder,
  // ceil(w/2) low then floor(w/2) high coefficients.
  const auto coeffs = dsp::LiftingFixedCoeffs::rounded(dsp::kDefaultFracBits);
  dsp::LiftingLadder ladder(dsp::fixed97_steps(coeffs), /*inverse=*/false);
  const auto row_transform = [&](std::size_t row) {
    const std::int32_t* first = &source.at(0, row);
    std::vector<std::int64_t> out(first, first + w);
    ladder(out.data(), w);
    return out;
  };

  if (h == 1) {
    // Single-row plane: the vertical pass is the JPEG2000 single-sample
    // pass-through, so only the row transform runs.
    const std::vector<std::int64_t> packed = row_transform(0);
    for (std::size_t c = 0; c < w; ++c) {
      plane.data()[c] = dsp::narrow_to_int32(packed[c]);
    }
    stats.rows_processed = 1;
    stats.line_buffer_words = 2 * w + 5 * w;
    return stats;
  }

  // One streaming lifting engine per column.  h rows produce ceil(h/2) low
  // rows and floor(h/2) high rows; for odd h the last fed pair's high row is
  // the extension's phantom and is not written back.
  std::vector<dsp::StreamingLifting97Fixed> columns(w);
  const std::ptrdiff_t low_rows = static_cast<std::ptrdiff_t>((h + 1) / 2);
  const std::ptrdiff_t high_rows = static_cast<std::ptrdiff_t>(h / 2);

  for (std::ptrdiff_t t = -kGuardRowPairs; t < low_rows + kGuardRowPairs;
       ++t) {
    // Vertical whole-sample symmetric extension, as the paper's memory
    // controller provides.
    const std::size_t even_row = dsp::mirror_index(2 * t, h);
    const std::size_t odd_row = dsp::mirror_index(2 * t + 1, h);
    const std::vector<std::int64_t> even = row_transform(even_row);
    const std::vector<std::int64_t> odd = row_transform(odd_row);
    stats.rows_processed += 2;

    const std::ptrdiff_t emit =
        t - dsp::StreamingLifting97Fixed::kDelayPairs;
    for (std::size_t c = 0; c < w; ++c) {
      const auto out = columns[c].push(even[c], odd[c]);
      if (out.has_value() && emit >= 0 && emit < low_rows) {
        // Low rows fill the top ceil(h/2) rows, high rows the rest -- but
        // only write once all columns of the row are known (after the loop
        // the whole row has been produced for this emit index).
        plane.at(c, static_cast<std::size_t>(emit)) =
            dsp::narrow_to_int32(out->first);
        if (emit < high_rows) {
          plane.at(c, static_cast<std::size_t>(emit + low_rows)) =
              dsp::narrow_to_int32(out->second);
        }
      }
    }
  }

  // Peak on-chip storage: the two current transformed rows plus the five
  // state words per column engine.
  stats.line_buffer_words = 2 * w + 5 * w;
  return stats;
}

}  // namespace dwt::hw
