// Fixture: pointer identity laundered through locals into model
// state.  The cast is where the nondeterminism is written, so it is
// banned there; no value derived from it can reach `stats_`.  Casts
// to a pointer type (`reinterpret_cast<const char *>`) expose no
// address and stay unflagged.
#include <cstdint>

namespace mdp
{

struct TaintStats {
    long cycles = 0;
};

class TaintModel
{
  public:
    void
    tick(void *slot)
    {
        auto key = reinterpret_cast<uintptr_t>(slot); // expect: nondet-source
        uintptr_t mixed = key ^ (key >> 7);
        stats_.cycles = static_cast<long>(mixed);
        bytes_ = reinterpret_cast<const char *>(slot);
    }

  private:
    TaintStats stats_;
    const char *bytes_ = nullptr;
};

} // namespace mdp
