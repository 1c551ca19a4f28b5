/**
 * @file
 * Unit tests for the register-forwarding hop counts (ring and 2D mesh)
 * and the manycore config validation they depend on.
 *
 * The hop formulas are pure integer functions, so the tests pin them
 * exactly: ring hops are task distance (additive along the ring), mesh
 * hops are dimension-ordered XY distance plus one grid diameter per
 * full revolution of the task distance.  Validation is exercised
 * through death tests -- a bad stage count or a non-factoring mesh
 * grid must exit(1) with the offending value in the message, never
 * simulate.
 */

#include <gtest/gtest.h>

#include "multiscalar/config.hh"
#include "multiscalar/interconnect.hh"

namespace mdp
{
namespace
{

// --------------------------------------------------------------------
// Ring
// --------------------------------------------------------------------

TEST(Interconnect, RingHopsAreTaskDistance)
{
    EXPECT_EQ(ringTaskHops(0, 0), 0u);
    EXPECT_EQ(ringTaskHops(3, 3), 0u);
    EXPECT_EQ(ringTaskHops(0, 1), 1u);
    EXPECT_EQ(ringTaskHops(2, 9), 7u);
    // Committed producers included: distance can exceed numStages.
    EXPECT_EQ(ringTaskHops(5, 5 + 1024), 1024u);
}

TEST(Interconnect, RingHopsAreAdditive)
{
    for (uint32_t p = 0; p < 20; ++p) {
        for (uint32_t m = p; m < 20; ++m) {
            for (uint32_t c = m; c < 20; ++c) {
                EXPECT_EQ(ringTaskHops(p, m) + ringTaskHops(m, c),
                          ringTaskHops(p, c));
            }
        }
    }
}

// --------------------------------------------------------------------
// Mesh
// --------------------------------------------------------------------

TEST(Interconnect, MeshHopsAreManhattanDistance)
{
    // 4x4 grid over 16 stages, row-major: PE s sits at (s % 4, s / 4).
    // Task 0 -> task 15 spans the full diagonal: dx = 3, dy = 3.
    EXPECT_EQ(meshTaskHops(0, 15, 16, 4, 4), 6u);
    // Same row: task 4 (1,1)... task 4 is PE 4 = (0,1); task 7 is PE 7
    // = (3,1): dx = 3, dy = 0.
    EXPECT_EQ(meshTaskHops(4, 7, 16, 4, 4), 3u);
    // Same column: PE 1 = (1,0) to PE 13 = (1,3): dy = 3.
    EXPECT_EQ(meshTaskHops(1, 13, 16, 4, 4), 3u);
    // Local forwarding is free.
    EXPECT_EQ(meshTaskHops(9, 9, 16, 4, 4), 0u);
}

TEST(Interconnect, MeshXYDistanceIsSymmetricWithinRevolution)
{
    // The XY component only depends on the endpoints' grid positions;
    // swapping producer and consumer PEs inside one revolution gives
    // the same distance.
    const unsigned stages = 16, mx = 4, my = 4;
    for (uint32_t a = 0; a < stages; ++a) {
        for (uint32_t b = a; b < stages; ++b) {
            const uint64_t fwd = meshTaskHops(a, b, stages, mx, my);
            // Re-ask the formula with the endpoints' roles mirrored
            // through task ids that land on swapped PEs.
            const uint64_t rev = meshTaskHops(b, a + stages, stages, mx,
                                              my) -
                                 (((a + stages) - b) / stages) *
                                     ((mx - 1) + (my - 1));
            EXPECT_EQ(fwd, rev) << "a=" << a << " b=" << b;
        }
    }
}

TEST(Interconnect, MeshChargesOneDiameterPerRevolution)
{
    const unsigned stages = 16, mx = 4, my = 4;
    const uint64_t diameter = (mx - 1) + (my - 1);
    for (uint32_t p : {0u, 3u, 9u}) {
        const uint64_t base = meshTaskHops(p, p + 2, stages, mx, my);
        for (unsigned rev = 1; rev <= 3; ++rev) {
            EXPECT_EQ(meshTaskHops(p, p + 2 + rev * stages, stages, mx,
                                   my),
                      base + rev * diameter);
        }
    }
}

TEST(Interconnect, MeshNeverExceedsDiameterWithinRevolution)
{
    const unsigned stages = 64, mx = 8, my = 8;
    const uint64_t diameter = (mx - 1) + (my - 1);
    for (uint32_t p = 0; p < stages; ++p) {
        for (uint32_t d = 0; d < stages; ++d)
            EXPECT_LE(meshTaskHops(p, p + d, stages, mx, my), diameter);
    }
}

// --------------------------------------------------------------------
// Config resolution
// --------------------------------------------------------------------

TEST(Interconnect, MeshAutoFactorsMostNearlySquare)
{
    MultiscalarConfig cfg;
    cfg.topology = Topology::Mesh;

    cfg.numStages = 1024;
    auto [mx1024, my1024] = resolveMeshDims(cfg);
    EXPECT_EQ(mx1024, 32u);
    EXPECT_EQ(my1024, 32u);

    cfg.numStages = 8;
    auto [mx8, my8] = resolveMeshDims(cfg);
    EXPECT_EQ(mx8, 4u);
    EXPECT_EQ(my8, 2u);

    // A prime stage count degenerates to a single row.
    cfg.numStages = 7;
    auto [mx7, my7] = resolveMeshDims(cfg);
    EXPECT_EQ(mx7, 7u);
    EXPECT_EQ(my7, 1u);
}

TEST(Interconnect, MeshPartialDimsResolveFromStages)
{
    MultiscalarConfig cfg;
    cfg.topology = Topology::Mesh;
    cfg.numStages = 64;

    cfg.meshY = 4;
    auto [mx, my] = resolveMeshDims(cfg);
    EXPECT_EQ(mx, 16u);
    EXPECT_EQ(my, 4u);

    cfg.meshY = 0;
    cfg.meshX = 8;
    auto [mx2, my2] = resolveMeshDims(cfg);
    EXPECT_EQ(mx2, 8u);
    EXPECT_EQ(my2, 8u);
}

// --------------------------------------------------------------------
// Validation death tests
// --------------------------------------------------------------------

TEST(InterconnectDeath, StageCountOutOfRange)
{
    MultiscalarConfig cfg;
    cfg.numStages = 0;
    EXPECT_EXIT(validateMultiscalarConfig(cfg),
                testing::ExitedWithCode(1),
                "numStages=0 out of range");
    cfg.numStages = 2000;
    EXPECT_EXIT(validateMultiscalarConfig(cfg),
                testing::ExitedWithCode(1),
                "numStages=2000 out of range");
}

TEST(InterconnectDeath, NonFactoringMeshGrid)
{
    MultiscalarConfig cfg;
    cfg.numStages = 16;
    cfg.topology = Topology::Mesh;
    cfg.meshX = 3;
    cfg.meshY = 5;
    EXPECT_EXIT(validateMultiscalarConfig(cfg),
                testing::ExitedWithCode(1),
                "mesh 3x5 does not factor numStages=16");
    cfg.meshX = 0;
    cfg.meshY = 5;
    EXPECT_EXIT(validateMultiscalarConfig(cfg),
                testing::ExitedWithCode(1),
                "meshY=5 does not divide numStages=16");
}

} // namespace
} // namespace mdp
