// The 9/7 lifting ladder streamed a pair of lines at a time, after the
// line-based architecture of the paper's reference [6]: each push takes one
// even and one odd line and, after a two-pair delay, gives back the low and
// high coefficient lines of an earlier pair.  A line is `lanes` samples
// wide, so the line-based 2-D transform's column engine carries every column
// of a plane as one lane.  The arithmetic is the ladder's step table
// (dsp/lifting_ladder.hpp), so the streaming and the batch transform share
// one definition of every step.  Boundary extension is the caller's job
// (feed mirrored pairs before and after the payload), exactly as the memory
// controller does for the gate-level cores.
#pragma once

#include <cstddef>
#include <vector>

#include "dsp/lifting_ladder.hpp"

namespace dwt::dsp {

template <class Mul>
class StreamingLadder {
 public:
  using T = typename Mul::value_type;

  /// Latency in pairs: the coefficient lines of input pair i come out of the
  /// push of pair i + kDelayPairs.
  static constexpr int kDelayPairs = 2;

  /// Five state words per lane: the previous input pair and the trailing
  /// lifting intermediates d1, s1 and d2.
  static constexpr std::size_t kStateWords = 5;

  StreamingLadder(const StepTable<Mul, 4>& steps, std::size_t lanes)
      : steps_(steps), lanes_(lanes), state_(kStateWords * lanes) {}

  /// Feeds one pair of lines.  Returns false during warm-up; otherwise
  /// writes the low and high lines of the pair pushed kDelayPairs earlier.
  /// With push index t it completes, from samples already seen,
  ///   d1[t-1] = d0[t-1] + alpha(s0[t-1] + s0[t])
  ///   s1[t-1] = s0[t-1] + beta(d1[t-2] + d1[t-1])
  ///   d2[t-2] = d1[t-2] + gamma(s1[t-2] + s1[t-1])
  ///   s2[t-2] = s1[t-2] + delta(d2[t-3] + d2[t-2])
  /// and scales s2[t-2] and d2[t-2].  The first pairs of a stream are
  /// computed from zero state; callers prepend mirrored guard pairs, so
  /// payload outputs are exact.
  bool push(const T* even, const T* odd, T* low, T* high) {
    const int t = pushed_ < kDelayPairs ? pushed_++ : kDelayPairs;
    T* s0 = state_.data();
    T* d0 = s0 + lanes_;
    T* d1 = d0 + lanes_;
    T* s1 = d1 + lanes_;
    T* d2 = s1 + lanes_;
    for (std::size_t j = 0; j < lanes_; ++j) {
      if (t >= 1) {
        const T d1_now = d0[j] + steps_.lift[0](s0[j] + even[j]);
        const T s1_now = s0[j] + steps_.lift[1](d1[j] + d1_now);
        if (t >= 2) {
          const T d2_now = d1[j] + steps_.lift[2](s1[j] + s1_now);
          const T s2 = s1[j] + steps_.lift[3](d2[j] + d2_now);
          low[j] = steps_.low(s2);
          high[j] = steps_.high(d2_now);
          d2[j] = d2_now;
        }
        d1[j] = d1_now;
        s1[j] = s1_now;
      }
      s0[j] = even[j];
      d0[j] = odd[j];
    }
    return t >= kDelayPairs;
  }

 private:
  StepTable<Mul, 4> steps_;
  std::size_t lanes_;
  std::vector<T> state_;  ///< s0, d0, d1, s1, d2: one row of lanes each
  int pushed_ = 0;
};

}  // namespace dwt::dsp
