#include "obs/trace.hpp"

namespace hc3i::obs {

const char* to_label(RecordKind k) {
  switch (k) {
    case RecordKind::kClcRoundBegin:
      return "clc_round";
    case RecordKind::kClcAck:
      return "clc_ack";
    case RecordKind::kClcCommit:
      return "clc_commit";
    case RecordKind::kCkptWrite:
      return "ckpt_write";
    case RecordKind::kChainRead:
      return "chain_read";
    case RecordKind::kFailure:
      return "failure";
    case RecordKind::kFailureDetected:
      return "failure_detected";
    case RecordKind::kNodeRestored:
      return "node_restored";
    case RecordKind::kRollbackBegin:
      return "rollback";
    case RecordKind::kGlobalRollback:
      return "global_rollback";
    case RecordKind::kRecoveryEnd:
      return "recovery_end";
    case RecordKind::kGcRoundBegin:
      return "gc_round";
    case RecordKind::kGcPrune:
      return "gc_prune";
    case RecordKind::kCampaignInject:
      return "inject";
  }
  return "unknown";
}

}  // namespace hc3i::obs
