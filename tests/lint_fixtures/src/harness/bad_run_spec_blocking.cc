// Deliberate ordered-scope violations: blocking calls inside a runSpec
// definition, and a std hash container, which is banned anywhere in
// src/.  The same calls outside runSpec are fine (the callers deliver
// results and the transport blocks all the time) and must stay
// undiagnosed.

#include <poll.h>
#include <unistd.h>

#include <mutex>
#include <unordered_map>

struct BadRunner {
    std::unordered_map<int, int> specState; // expect: ordered-scope
    std::mutex mtx;
    int fd = 0;

    int runSpec(int spec);
    void deliver(int result);
};

int
BadRunner::runSpec(int spec)
{
    std::lock_guard<std::mutex> hold(mtx); // expect: ordered-scope
    char buf[8];
    if (read(fd, buf, sizeof buf) < 0) // expect: ordered-scope
        return -1;
    poll(nullptr, 0, 1); // expect: ordered-scope
    return spec;
}

void
BadRunner::deliver(int result)
{
    // Not the simulation path: delivering a result may block.
    poll(nullptr, 0, result);
    char buf[8];
    static_cast<void>(read(fd, buf, sizeof buf));
}
