#include "inputs.h"

#include <algorithm>
#include <numeric>
#include <random>

namespace perfbench {

namespace wl = gstream::workload;
using gstream::QueryPattern;

gstream::workload::QueryGenConfig PaperQueryConfig(size_t num_queries) {
  wl::QueryGenConfig qc;  // avg_size, selectivity and overlap default to §6.1.
  qc.num_queries = num_queries;
  qc.seed = kStructureSeed;
  return qc;
}

namespace {

QueryPattern RemapQuery(const QueryPattern& q, const std::vector<uint32_t>& new_id) {
  QueryPattern out;
  for (uint32_t v = 0; v < q.NumVertices(); ++v) {
    const QueryPattern::Vertex& vx = q.vertex(v);
    if (vx.is_var) {
      out.AddVariable(vx.var_name);
    } else {
      out.AddLiteral(new_id[vx.literal]);
    }
  }
  for (const QueryPattern::Edge& e : q.edges()) out.AddEdge(e.src, new_id[e.label], e.dst);
  for (const QueryPattern::VertexConstraint& c : q.constraints())
    out.AddConstraint(c.vertex, new_id[c.key], c.op, c.value);
  return out;
}

}  // namespace

Inputs Relabel(const wl::Workload& w, const wl::QuerySet& qs, uint64_t seed) {
  std::mt19937_64 rng(seed);
  const gstream::StringInterner& old = *w.interner;
  std::vector<uint32_t> order(old.size());
  std::iota(order.begin(), order.end(), 0u);
  std::shuffle(order.begin(), order.end(), rng);

  Inputs in;
  in.interner = std::make_shared<gstream::StringInterner>();
  std::vector<uint32_t> new_id(old.size());
  for (uint32_t id : order) new_id[id] = in.interner->Intern(old.Lookup(id));

  in.updates = w.stream.updates();
  for (gstream::EdgeUpdate& u : in.updates) {
    u.src = new_id[u.src];
    u.label = new_id[u.label];
    u.dst = new_id[u.dst];
  }
  for (const QueryPattern& q : qs.queries) in.queries.push_back(RemapQuery(q, new_id));
  in.qids.resize(in.queries.size());
  std::iota(in.qids.begin(), in.qids.end(), gstream::QueryId{0});
  std::shuffle(in.qids.begin(), in.qids.end(), rng);
  return in;
}

}  // namespace perfbench
