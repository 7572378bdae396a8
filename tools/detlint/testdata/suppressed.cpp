// Fixture: every violation here carries a detlint:allow suppression, so a
// scan must report zero findings. Never compiled.
#include <chrono>
#include <cstdlib>

long fixture_suppressed_clock() {
  // Same-line suppression:
  auto tp = std::chrono::system_clock::now();  // detlint:allow(wall-clock, fixture)
  (void)tp;
  // Line-above suppression:
  // detlint:allow(raw-rng, fixture exercises the carry-down form)
  int r = std::rand();
  // Rule list; the reason may hold commas and parentheses:
  // detlint:allow(wall-clock, raw-rng, fixture (list form), reason with a comma)
  return r + static_cast<long>(time(nullptr)) + std::rand();
}
