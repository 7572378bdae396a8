// Annotations for the per-request hot path.
#pragma once

// Marks a function as replay-loop hot for detlint's purity pass (see
// tools/detlint/passes.hpp): inside its body, allocation, throw and IO
// become findings unless each carries a reasoned detlint suppression.
// Expands to nothing — it is a lint annotation, not a codegen attribute,
// so marking a function hot can never perturb the golden masters. For hot
// code in free functions where no declaration can carry the marker, use a
// `// detlint:hot-begin` .. `// detlint:hot-end` comment region instead.
#define CDN_HOT
