// Untraced end-to-end benchmark binary: end-to-end metrics only.
#include "harness.h"

int main(int argc, char** argv) {
  return capd::e2e::HarnessMain(argc, argv, nullptr);
}
