// Deterministic random number utilities.
//
// All stochastic components in flowrank (trace generation, samplers,
// Monte-Carlo model validation, trace-driven simulation) draw their
// randomness through this header so that every experiment is exactly
// reproducible from a single 64-bit seed.
#pragma once

#include <array>
#include <cstdint>
#include <random>

namespace flowrank::util {

/// SplitMix64 step. Used both as a tiny standalone generator and as the
/// canonical way to derive independent child seeds from a master seed.
/// Reference: Steele, Lea & Flood, "Fast splittable pseudorandom number
/// generators", OOPSLA 2014.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Derives the `stream`-th child seed from `master`. Children are
/// statistically independent for practical purposes; use one stream per
/// simulation run / per component.
[[nodiscard]] constexpr std::uint64_t derive_seed(std::uint64_t master,
                                                  std::uint64_t stream) noexcept {
  std::uint64_t s = master ^ (0x9e3779b97f4a7c15ULL * (stream + 1));
  // Two rounds of splitmix to decorrelate nearby stream indices.
  (void)splitmix64(s);
  return splitmix64(s);
}

/// Folds one more coordinate into a stream id, splitmix-style. Unlike
/// shift-packing ((a << 40) ^ (b << 20) ^ c), which silently collides as
/// soon as a coordinate outgrows its bit field (e.g. >= 2^20 bins of a
/// long trace aliasing the run index), every coordinate is diffused over
/// all 64 bits before the next one is folded in, so distinct tuples give
/// distinct streams up to a ~2^-64 accidental collision.
[[nodiscard]] constexpr std::uint64_t mix_stream(std::uint64_t stream,
                                                 std::uint64_t coordinate) noexcept {
  std::uint64_t s = stream ^ (0x94d049bb133111ebULL * (coordinate + 1));
  (void)splitmix64(s);
  return splitmix64(s);
}

/// Stream id for a (a, b, c) coordinate triple, e.g. (rate index, run,
/// bin). Feed the result to make_engine() as the stream argument.
[[nodiscard]] constexpr std::uint64_t mix_streams(std::uint64_t a, std::uint64_t b,
                                                  std::uint64_t c) noexcept {
  return mix_stream(mix_stream(a, b), c);
}

/// Engine used across the library: MT19937-64 (Matsumoto & Nishimura),
/// bit-identical to std::mt19937_64 for every seed and draw count, so
/// golden values are the standard engine's and hold on every platform.
///
/// std::mt19937_64 seeds all 312 state words and twists all of them
/// before its first output; a flow that then reads ten words paid for
/// 624. This engine does both on demand during its first 312 draws:
/// output j twists word j in place from words j, j+1 and j+156 (mod 312)
/// -- the block twist done one word at a time, in the same order, so even
/// the wrap at word 311 (which reads the already-twisted word 0) matches
/// -- and the seeding recurrence runs only as far as word j+156 needs
/// it. A seed plus k draws costs about 157 + k steps instead of 624 + k.
/// From the second lap on it block-twists like the std engine, so long
/// streams cost the same.
///
/// The std distributions read a URBG only through min(), max() and
/// operator(), so the same raw stream gives the same variates.
class Engine {
 public:
  using result_type = std::uint64_t;

  explicit Engine(result_type seed = 5489u) noexcept { state_[0] = seed; }

  [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
  [[nodiscard]] static constexpr result_type max() noexcept { return ~result_type{0}; }

  result_type operator()() noexcept {
    if (index_ >= twisted_) [[unlikely]] twist_next();
    result_type x = state_[index_++];
    x ^= (x >> 29) & 0x5555555555555555ULL;
    x ^= (x << 17) & 0x71D67FFFEDA60000ULL;
    x ^= (x << 37) & 0xFFF7EEE000000000ULL;
    return x ^ (x >> 43);
  }

 private:
  static constexpr std::uint32_t kWords = 312;
  static constexpr std::uint32_t kShift = 156;

  /// One word of the MT19937-64 twist.
  static constexpr result_type twist(result_type word, result_type next,
                                     result_type shifted) noexcept {
    constexpr result_type kUpperMask = ~result_type{0} << 31;
    const result_type y = (word & kUpperMask) | (next & ~kUpperMask);
    return shifted ^ (y >> 1) ^ ((y & 1u) ? 0xB5026F5AA96619E9ULL : 0u);
  }

  /// Twists the word index_ is about to read: one word at a time (seeding
  /// as far as it needs) in the first lap, all 312 at a lap boundary after.
  void twist_next() noexcept {
    if (index_ == kWords) {
      twist_block();
      return;
    }
    const std::uint32_t i = index_;
    if (seeded_ < kWords) {
      // Locals keep the serial seeding chain in registers.
      const std::uint32_t words = i + kShift + 1 < kWords ? i + kShift + 1 : kWords;
      std::uint32_t w = seeded_;
      result_type prev = state_[w - 1];
      for (; w < words; ++w) {
        prev = 6364136223846793005ULL * (prev ^ (prev >> 62)) + w;
        state_[w] = prev;
      }
      seeded_ = w;
    }
    const std::uint32_t next = i + 1 == kWords ? 0 : i + 1;
    state_[i] = twist(state_[i], state_[next], state_[i < kShift ? i + kShift : i - kShift]);
    twisted_ = i + 1;
  }

  /// Later laps: the std engine's block twist of all 312 words.
  void twist_block() noexcept {
    std::uint32_t k = 0;
    for (; k < kWords - kShift; ++k) {
      state_[k] = twist(state_[k], state_[k + 1], state_[k + kShift]);
    }
    for (; k < kWords - 1; ++k) {
      state_[k] = twist(state_[k], state_[k + 1], state_[k - (kWords - kShift)]);
    }
    state_[kWords - 1] = twist(state_[kWords - 1], state_[0], state_[kShift - 1]);
    index_ = 0;
  }

  // Words at and past seeded_ are not yet written; nothing reads them
  // before twist_next() seeds them. The cursors are 32-bit so that
  // stores to state_ cannot alias them.
  std::array<result_type, kWords> state_;
  std::uint32_t seeded_ = 1;   ///< init words written (first lap only)
  std::uint32_t twisted_ = 0;  ///< words [0, twisted_) hold this lap's output
  std::uint32_t index_ = 0;    ///< next word to output
};

/// Makes an engine for (master seed, stream id).
[[nodiscard]] inline Engine make_engine(std::uint64_t master,
                                        std::uint64_t stream = 0) {
  return Engine{derive_seed(master, stream)};
}

/// Uniform draw on (0, 1]: always a valid ccdf value to invert and a
/// valid log() argument (uniform_real_distribution yields [0, 1)).
[[nodiscard]] inline double uniform_unit_open(Engine& engine) {
  std::uniform_real_distribution<double> unif(0.0, 1.0);
  return 1.0 - unif(engine);
}

}  // namespace flowrank::util
