//===- tests/support/DoubleSamples.h - seeded test doubles ------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded doubles for the number-text tests: the writers and readers of
/// support/StringUtil and obs/Json are checked against printf and strtod
/// over millions of these.
///
//===----------------------------------------------------------------------===//

#ifndef PIMFLOW_TESTS_SUPPORT_DOUBLESAMPLES_H
#define PIMFLOW_TESTS_SUPPORT_DOUBLESAMPLES_H

#include <cmath>
#include <cstring>

#include "support/Random.h"

namespace pf {

/// One seeded finite double: a raw bit pattern (every exponent, both
/// zeros, subnormals), a split ratio on the search's 1% and 2% grids, a
/// simulated time from sub-nanosecond to seconds, or a wall-clock time
/// rounded to the microsecond and printed in milliseconds.
inline double sampleDouble(Rng &R) {
  switch (R.nextBelow(4)) {
  case 0: {
    double D;
    do {
      const uint64_t Bits = R.next();
      std::memcpy(&D, &Bits, sizeof(D));
    } while (!std::isfinite(D));
    return D;
  }
  case 1:
    return static_cast<double>(R.nextBelow(101)) /
           (R.nextBelow(2) ? 100.0 : 50.0);
  case 2:
    return R.nextDouble() *
           std::pow(10.0, static_cast<double>(R.nextBelow(14)) - 3.0);
  default:
    return std::round(R.nextDouble() * 1e10) / 1e3;
  }
}

} // namespace pf

#endif // PIMFLOW_TESTS_SUPPORT_DOUBLESAMPLES_H
