// Traced end-to-end benchmark binary: spans, per-layer metrics and
// allocation counts. Referencing AllocCount links common/alloc_tracker.
#include "common/alloc_tracker.h"
#include "harness.h"

int main(int argc, char** argv) {
  return capd::e2e::HarnessMain(argc, argv, &capd::AllocCount);
}
