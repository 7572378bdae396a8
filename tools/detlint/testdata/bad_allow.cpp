// Fixture: suppressions that break the one grammar. Each silences nothing
// and is itself reported as bad-allow. Never compiled.
#include <cstdlib>

// A stale waiver that names no rule:
int stale() { return std::rand(); }  // detlint:allow(no-such-rule, was a rule once)

// A waiver with no reason:
int bare() { return std::rand(); }  // detlint:allow(raw-rng)

// Rule ids only, so still no reason:
int ids_only() { return std::rand(); }  // detlint:allow(raw-rng, wall-clock)

// No closing parenthesis:
int open() { return std::rand(); }  // detlint:allow(raw-rng, reason
