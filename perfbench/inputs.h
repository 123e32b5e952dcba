// Input generation shared by the workloads.
//
// The generators' own seed fixes a workload's structure: which subgraphs the
// stream holds and which patterns the queries are. That structure decides
// the amount of work, and it swings widely between generator seeds (on an
// SNB stream of 30k updates from 0.5k to 40k updates/s), so a benchmark
// that drew it from --seed would compare noise. The structure therefore
// comes from one fixed seed, and --seed draws an isomorphic copy
// of it: a random assignment of interned ids to the vertex and label names
// and a random assignment of query ids. Queries keep their registration
// order, since the order shapes TRIC's shared tries. Runs with different
// seeds feed the program different ids, hash layouts, result orders and
// subscriber shares, and the same work.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/interning.h"
#include "graph/update.h"
#include "query/pattern.h"
#include "workload/query_gen.h"
#include "workload/workload.h"

namespace perfbench {

/// The generators' seed for every workload's structure.
inline constexpr uint64_t kStructureSeed = 2;

/// The §6.1 query-set defaults (l = 5, σ = 25%, o = 35%) at `num_queries`.
gstream::workload::QueryGenConfig PaperQueryConfig(size_t num_queries);

/// A stream and query set relabeled under one seed.
struct Inputs {
  std::shared_ptr<gstream::StringInterner> interner;
  std::vector<gstream::EdgeUpdate> updates;
  std::vector<gstream::QueryPattern> queries;  ///< In registration order.
  std::vector<gstream::QueryId> qids;          ///< A seeded permutation.
};

/// Relabels `w`'s stream and `qs` under `seed`: every interned name gets a
/// fresh id from a seeded permutation, and query i gets id qids[i] from
/// another.
Inputs Relabel(const gstream::workload::Workload& w,
               const gstream::workload::QuerySet& qs, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
