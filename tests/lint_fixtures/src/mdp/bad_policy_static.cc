// Fixture: a DependencePolicy with hidden shared state.  One policy
// object drives both timing models and every served run, so a
// mutable static (class-scope or function-local) silently couples
// runs.  `static const` is the blessed idiom and stays unflagged.
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

} // namespace mdp
