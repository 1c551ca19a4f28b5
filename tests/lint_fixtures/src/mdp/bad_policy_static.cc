// Fixture: hidden shared state in src/mdp/, where every
// DependencePolicy lives.  The cells of one ExperimentRunner sweep or
// mdp_served batch share the process, so a mutable static
// (class-scope, function-local or free) silently couples their
// results.  `static const` is the blessed idiom and stays unflagged.
#include "mdp/dep_policy.hh"

#include <string>

namespace mdp
{

class StickyPolicy final : public DependencePolicy
{
  public:
    const std::string &
    name() const override
    {
        static const std::string n = "sticky"; // const: allowed
        return n;
    }

    int
    bump()
    {
        static int calls = 0; // expect: policy-static-state
        return ++calls;
    }

  private:
    static int hits_; // expect: policy-static-state
};

// Not a policy class, but the same process-wide state.
int
nextEdgeId()
{
    static int next = 0; // expect: policy-static-state
    return next++;
}

} // namespace mdp
