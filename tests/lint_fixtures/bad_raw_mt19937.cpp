// Fixture: trips exactly [raw-mt19937].
#include <cstdint>
#include <random>

std::uint64_t first_draw(std::uint64_t seed) {
  std::mt19937_64 engine(seed);
  return engine();
}
