// Fixture: trips exactly [std-binomial-distribution].
#include <random>

#include "flowrank/util/rng.hpp"

unsigned long split(flowrank::util::Engine& engine) {
  std::binomial_distribution<unsigned long> dist(100, 0.5);
  return dist(engine);
}
