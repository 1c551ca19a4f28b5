// Deliberate ordered-scope violations: blocking calls and
// unordered-container iteration inside a runLane definition.  The
// same calls outside runLane are fine (the completion callback and
// the transport block all the time) and must stay undiagnosed.

#include <poll.h>
#include <unistd.h>

#include <mutex>
#include <unordered_map>

struct BadEvaluator {
    std::unordered_map<int, int> laneState;
    std::mutex mtx;
    int fd = 0;

    int runLane(int lane);
    void laneDone(int result);
};

int
BadEvaluator::runLane(int lane)
{
    std::lock_guard<std::mutex> hold(mtx); // expect: ordered-scope
    char buf[8];
    if (read(fd, buf, sizeof buf) < 0) // expect: ordered-scope
        return -1;
    poll(nullptr, 0, 1); // expect: ordered-scope
    int n = lane;
    for (auto &kv : laneState) // expect: ordered-scope
        n += kv.second;
    return n;
}

void
BadEvaluator::laneDone(int result)
{
    // Not the simulation path: delivering a result may block.
    poll(nullptr, 0, result);
    char buf[8];
    static_cast<void>(read(fd, buf, sizeof buf));
}
