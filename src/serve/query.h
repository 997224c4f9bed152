// The query vocabulary of the serve layer: which epoch an answer came
// from, the request kinds, and the result ProvenanceService::Execute
// returns. Callers run queries on their own threads; every reader
// method reads only epoch-pinned immutable state, so readers never
// contend with the ingest writer.
#ifndef TINPROV_SERVE_QUERY_H_
#define TINPROV_SERVE_QUERY_H_

#include <cstddef>
#include <cstdint>
#include <limits>

#include "core/buffer.h"
#include "core/types.h"
#include "util/status.h"

namespace tinprov {

/// Identity of one published epoch: which consistent state a query was
/// answered from.
struct EpochInfo {
  /// Publish sequence number; 0 is the initial (pre-ingest) state.
  uint64_t seq = 0;
  /// Log position: interactions applied since empty state, counting
  /// those recovered from the durability directory and those loaded by
  /// Catchup().
  size_t prefix = 0;
  /// The state is complete through this timestamp.
  Timestamp watermark = std::numeric_limits<Timestamp>::lowest();
};

enum class QueryKind {
  kProvenance,    // Provenance(v) at the latest epoch
  kProvenanceAt,  // Provenance(v, t) — historical: ring epoch or History
  kTopOrigins,    // top-k origins of v's buffer by quantity
};

struct QueryRequest {
  QueryKind kind = QueryKind::kProvenance;
  VertexId v = 0;
  Timestamp t = 0;  // kProvenanceAt only
  size_t k = 0;     // kTopOrigins only
};

struct QueryResult {
  Status status;
  Buffer buffer;
  /// The epoch the answer is consistent with. For kProvenanceAt this is
  /// still the epoch the query was *resolved against* (its log/snapshot
  /// view); the buffer itself reflects time `t`.
  EpochInfo epoch;
  /// Process-unique id ProvenanceService::Execute stamped on the query
  /// (correlates with the slow-query log); 0 for answers that bypassed
  /// Execute (the direct reader methods).
  uint64_t query_id = 0;
  /// Log interactions delta-replayed to build the answer; 0 on the
  /// epoch fast paths (latest epoch, ring hit).
  size_t replayed_interactions = 0;
};

}  // namespace tinprov

#endif  // TINPROV_SERVE_QUERY_H_
