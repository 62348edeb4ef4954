#include "adapt/adaptor.hpp"

namespace plum::adapt {

const MarkingResult& MeshAdaptor::mark(const std::vector<char>& seed_marks) {
  mark_timer.begin();
  marks_ = propagate_marks(*mesh_, seed_marks);
  has_marks_ = true;
  mark_timer.end();
  return marks_;
}

const MarkingResult& MeshAdaptor::mark_fraction(const std::vector<double>& err,
                                                double fraction) {
  return mark(mark_above(
      *mesh_, err, refine_threshold(active_values(*mesh_, err), fraction)));
}

PredictedWeights MeshAdaptor::predicted_weights() const {
  PLUM_ASSERT_MSG(has_marks_, "predicted_weights requires a pending mark()");
  const mesh::RootWeights current = mesh_->root_weights();
  PredictedWeights w;
  w.wcomp = current.wcomp;
  w.wremap = current.wremap;
  // Each targeted leaf becomes children_of(t) leaves: the root's leaf count
  // grows by (children - 1) and its tree size by children (the parent stays
  // in the tree).
  for (Index t = 0; t < mesh_->num_elements(); ++t) {
    const auto& el = mesh_->element(t);
    if (!el.alive || !el.is_leaf()) continue;
    const int kids = marks_.children_of(t);
    if (kids <= 1) continue;
    const auto root = static_cast<std::size_t>(el.root);
    w.wcomp[root] += kids - 1;
    w.wremap[root] += kids;
  }
  return w;
}

RefineStats MeshAdaptor::refine(const obs::MemScratch& scratch) {
  PLUM_ASSERT_MSG(has_marks_, "refine requires a pending mark()");
  refine_timer.begin();
  const RefineStats stats = refine_mesh(*mesh_, marks_, scratch);
  refine_timer.end();
  has_marks_ = false;
  return stats;
}

CoarsenStats MeshAdaptor::coarsen(
    const std::vector<char>& coarsen_marks,
    const std::function<void(const std::vector<Index>&)>& on_compaction) {
  coarsen_timer.begin();
  const CoarsenStats stats = coarsen_mesh(*mesh_, coarsen_marks, on_compaction);
  coarsen_timer.end();
  has_marks_ = false;  // compaction renumbered everything
  return stats;
}

}  // namespace plum::adapt
