// Hand-built operator trees for tests: the single input chain of a
// pipeline breaker, and a serial hash join (one probe over a one-chain
// build).
#ifndef X100_TESTS_TEST_PLANS_H_
#define X100_TESTS_TEST_PLANS_H_

#include <memory>
#include <utility>
#include <vector>

#include "exec/hash_join.h"
#include "exec/operator.h"

namespace x100 {

inline std::vector<OperatorPtr> OneChain(OperatorPtr op) {
  std::vector<OperatorPtr> chains;
  chains.push_back(std::move(op));
  return chains;
}

/// Keys are column indexes into the respective child schemas.
inline std::unique_ptr<JoinProbeOp> SerialJoin(OperatorPtr build,
                                               OperatorPtr probe,
                                               std::vector<int> build_keys,
                                               std::vector<int> probe_keys,
                                               JoinType type) {
  return std::make_unique<JoinProbeOp>(
      std::move(probe),
      std::make_shared<JoinBuildState>(OneChain(std::move(build)),
                                       std::move(build_keys)),
      std::move(probe_keys), type);
}

}  // namespace x100

#endif  // X100_TESTS_TEST_PLANS_H_
