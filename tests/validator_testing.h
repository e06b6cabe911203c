// Test-only factory for IncrementalValidator: Create() for the suites that
// build validators from policies they expect to be valid.

#ifndef GEDLIB_TESTS_VALIDATOR_TESTING_H_
#define GEDLIB_TESTS_VALIDATOR_TESTING_H_

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <utility>
#include <vector>

#include "incr/incremental.h"

namespace ged {

/// IncrementalValidator::Create, failing the running test (and aborting
/// the binary, since no validator exists to continue with) on rejection.
inline std::unique_ptr<IncrementalValidator> CreateValidator(
    Graph g, std::vector<Ged> sigma, ValidationOptions options = {}) {
  auto created = IncrementalValidator::Create(std::move(g), std::move(sigma),
                                              std::move(options));
  if (!created.ok()) {
    ADD_FAILURE() << "IncrementalValidator::Create: "
                  << created.status().ToString();
    std::abort();
  }
  return created.Take();
}

}  // namespace ged

#endif  // GEDLIB_TESTS_VALIDATOR_TESTING_H_
