// Fixture: a planted violation under a build/ directory. The excludes
// must keep project scans from ever reading this file; only scanning it
// directly may report the raw-rng finding below.
int planted() { return std::rand(); }
