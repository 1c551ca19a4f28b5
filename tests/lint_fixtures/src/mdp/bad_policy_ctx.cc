// Fixture: src/mdp/ code that retains the per-call LoadIssueContext
// -- once as a member of context type, once by taking the address of
// the context parameter.  The context is only valid for the duration
// of onLoad(); both escapes are diagnostics.
#include "mdp/dep_policy.hh"

namespace mdp
{

class HoardPolicy final : public DependencePolicy
{
  public:
    LoadDecision
    onLoad(const LoadIssueContext &ctx)
    {
        saved_ = &ctx; // expect: policy-ctx-escape
        LoadDecision d;
        return d;
    }

  private:
    const LoadIssueContext *saved_ = nullptr; // expect: policy-ctx-escape
};

} // namespace mdp
