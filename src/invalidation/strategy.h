#ifndef DSSP_INVALIDATION_STRATEGY_H_
#define DSSP_INVALIDATION_STRATEGY_H_

#include <optional>
#include <string_view>

#include "analysis/exposure.h"
#include "engine/query_result.h"
#include "sql/ast.h"
#include "templates/template.h"

namespace dssp::invalidation {

enum class Decision {
  kInvalidate,       // I
  kDoNotInvalidate,  // DNI
};

// Sentinel for "template index unknown" in the views below; equals
// CacheEntry::kNoTemplate. The strategies look a pair up in the compiled
// InvalidationPlan by the TemplateSet index of both templates, so a view
// left at this sentinel has no pair to consult and is invalidated.
inline constexpr size_t kNoTemplateIndex = static_cast<size_t>(-1);

// What the DSSP can see about a completed update, as limited by the update
// template's exposure level:
//   blind    -> nothing (tmpl/statement unset)
//   template -> tmpl set
//   stmt     -> tmpl + bound statement set
struct UpdateView {
  analysis::ExposureLevel level = analysis::ExposureLevel::kBlind;
  const templates::UpdateTemplate* tmpl = nullptr;
  const sql::Statement* statement = nullptr;  // Fully bound.
  size_t template_index = kNoTemplateIndex;   // Index of tmpl, if known.
};

// What the DSSP can see about a cached query result, as limited by the
// query template's exposure level:
//   blind    -> nothing
//   template -> tmpl set
//   stmt     -> tmpl + bound statement set
//   view     -> tmpl + statement + plaintext result set
struct CachedQueryView {
  analysis::ExposureLevel level = analysis::ExposureLevel::kBlind;
  const templates::QueryTemplate* tmpl = nullptr;
  const sql::Statement* statement = nullptr;  // Fully bound.
  const engine::QueryResult* result = nullptr;
  size_t template_index = kNoTemplateIndex;  // Index of tmpl, if known.
};

// A view invalidation strategy (Section 2.2): invoked for every cached
// entry whenever an update completes. Correctness requirement: whenever the
// entry's underlying result would change, the strategy must return
// kInvalidate. Implementations must only consult the fields their class is
// allowed to see.
class InvalidationStrategy {
 public:
  virtual ~InvalidationStrategy() = default;

  virtual Decision Decide(const UpdateView& update,
                          const CachedQueryView& query) const = 0;

  virtual std::string_view name() const = 0;
};

}  // namespace dssp::invalidation

#endif  // DSSP_INVALIDATION_STRATEGY_H_
