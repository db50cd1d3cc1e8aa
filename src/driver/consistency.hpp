#pragma once

// Post-run structural invariants, beyond the message-level ledger audit.
//
// The paper claims (§3.1-3.2) that the two-phase commit keeps the SN and
// the DDV "the same on all the nodes of a cluster (outside the two-phase
// commit protocol)".  These helpers verify exactly that after a run, plus
// DDV well-formedness on every retained checkpoint.

#include <string>
#include <vector>

#include "hc3i/runtime.hpp"

namespace hc3i::driver {

/// Append violations of the cluster-agreement and store invariants to
/// `out` (nothing is appended when all hold):
///   * all agents of a cluster agree on SN, DDV and incarnation, unless a
///     2PC round is in flight at the observation instant;
///   * every stored CLC has DDV[self] == its SN and SN strictly increasing;
///   * DDV entries never exceed the referenced cluster's current SN;
///   * the store's running byte total and the runtime's per-cluster
///     sender-log totals equal a full recount.
/// `expect_ddv_agreement` is false for the independent baseline, whose
/// nodes legitimately diverge on DDV entries between commits (lazy
/// delivery-time updates).
void append_cluster_agreement_violations(const core::Hc3iRuntime& rt,
                                         std::vector<std::string>& out,
                                         bool expect_ddv_agreement = true);

}  // namespace hc3i::driver
