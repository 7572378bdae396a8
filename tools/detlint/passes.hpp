// detlint phase 2: cross-TU passes over the merged project model.
//
// Three pass families:
//
//   lock-order        Every MutexLock / .lock() / .try_lock() site is an
//                     acquisition; CDN_REQUIRES arguments (merged from
//                     declarations across TUs) are held on entry. Each
//                     acquisition with a non-empty held set contributes
//                     held -> acquired edges to the mutex-order graph;
//                     acquisitions also propagate through resolved,
//                     non-virtual calls (fixpoint closure). Any strongly
//                     connected component — including a self-loop, i.e. a
//                     re-acquisition — is a potential deadlock and fails
//                     as `lock-order-cycle`.
//
//   hot-path purity   Hot code is a function marked CDN_HOT (on either the
//                     declaration or the definition) or a
//                     `// detlint:hot-begin` .. `hot-end` comment region.
//                     Inside hot lines: `throw-in-hot`, `io-in-hot`
//                     (stream/stdio identifiers), `alloc-in-hot` (new,
//                     make_unique/make_shared, string temporaries, and
//                     growth calls — push_back/resize/... — on a receiver
//                     never .reserve()d in the same class or function).
//                     Analysis is lexical per line; callees of hot
//                     functions are NOT traversed — hotness does not
//                     propagate (documented boundary, DESIGN §5i).
//
//   accounting        Every class defining metadata_bytes() must reference
//                     each accountable member (std:: container, FlatMap /
//                     LruQueue / GhostList, or a member whose class itself
//                     defines metadata_bytes) by name inside the body, or
//                     the definition must carry
//                     `// detlint:allow(accounting, reason)`. This turns
//                     the "forgot to charge a container" bug class into a
//                     lint failure.
#pragma once

#include <vector>

#include "detlint.hpp"
#include "model.hpp"

namespace cdn::detlint {

/// Runs all phase-2 passes. Findings already covered by a
/// `// detlint:allow(...)` suppression in the model are removed.
std::vector<Finding> run_project_passes(const ProjectModel& pm);

}  // namespace cdn::detlint
