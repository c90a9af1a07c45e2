// OSM-DL: parsing, elaboration, error reporting, and running an
// ADL-described machine under the director.
#include <gtest/gtest.h>

#include "adl/adl.hpp"

#include "uarch/inorder_queue.hpp"
#include "uarch/register_file.hpp"
#include "uarch/rename.hpp"
#include "uarch/reset.hpp"
#include "analysis/analysis.hpp"
#include "core/director.hpp"
#include "core/osm.hpp"

namespace {

using namespace osm;
using osm_t = osm::core::osm;

const char* k_pipe = R"(
; three-stage pipeline described declaratively
machine pipe3
slots 1

manager unit m_f
manager unit m_d
manager unit m_w

state I initial
state F
state D
state W

edge I -> F {
  allocate m_f 0
  action on_fetch
}
edge F -> D {
  release m_f 0
  allocate m_d 0
}
edge D -> W {
  release m_d 0
  allocate m_w 0
}
edge W -> I {
  release m_w 0
  action on_retire
}
)";

TEST(Adl, ParsesManagersStatesEdges) {
    const auto m = adl::parse_machine(k_pipe, {}, /*allow_missing_actions=*/true);
    EXPECT_EQ(m->name, "pipe3");
    EXPECT_EQ(m->managers.size(), 3u);
    EXPECT_NE(m->find_manager("m_f"), nullptr);
    EXPECT_EQ(m->find_manager("nope"), nullptr);
    EXPECT_EQ(m->graph.num_states(), 4);
    EXPECT_EQ(m->graph.num_edges(), 4);
    EXPECT_TRUE(m->graph.finalized());
    EXPECT_EQ(m->graph.state_name(m->graph.initial()), "I");
}

TEST(Adl, ElaboratedMachineRunsLikeAPipeline) {
    int fetches = 0;
    int retires = 0;
    adl::action_registry reg;
    reg["on_fetch"] = [&](core::osm&) { ++fetches; };
    reg["on_retire"] = [&](core::osm&) { ++retires; };
    const auto m = adl::parse_machine(k_pipe, reg);

    core::director d;
    std::vector<std::unique_ptr<osm_t>> ops;
    for (int i = 0; i < 4; ++i) {
        ops.push_back(std::make_unique<osm_t>(m->graph, "op" + std::to_string(i)));
        d.add(*ops.back());
    }
    // 20 control steps of a 3-deep pipeline: after fill, one retire/step.
    for (int i = 0; i < 20; ++i) d.control_step();
    EXPECT_GT(retires, 10);
    EXPECT_GE(fetches, retires);
    // Occupancy invariant: never two ops in one stage.
    const auto* mf = dynamic_cast<core::unit_token_manager*>(m->find_manager("m_f"));
    ASSERT_NE(mf, nullptr);
}

TEST(Adl, SupportsAllManagerKinds) {
    const auto m = adl::parse_machine(R"(
machine kinds
manager unit u
manager pool p capacity 4
manager queue q capacity 6 alloc_bw 2 release_bw 2
manager regfile rf regs 32 zero forwarding
manager rename rn regs 32 buffers 6 zero
manager reset rs
state I initial
)");
    EXPECT_EQ(m->managers.size(), 6u);
    EXPECT_NE(dynamic_cast<core::pool_token_manager*>(m->find_manager("p")), nullptr);
    EXPECT_NE(dynamic_cast<osm::uarch::inorder_queue_manager*>(m->find_manager("q")), nullptr);
    EXPECT_NE(dynamic_cast<osm::uarch::register_file_manager*>(m->find_manager("rf")), nullptr);
    EXPECT_NE(dynamic_cast<osm::uarch::rename_manager*>(m->find_manager("rn")), nullptr);
    EXPECT_NE(dynamic_cast<osm::uarch::reset_manager*>(m->find_manager("rs")), nullptr);
}

TEST(Adl, SlotIdentifiersAndPriorities) {
    const auto m = adl::parse_machine(R"(
machine s
slots 2
manager unit u
state I initial
state A
edge I -> A priority 7 {
  allocate u slot 1
}
)");
    const auto& e = m->graph.edge(0);
    EXPECT_EQ(e.priority, 7);
    ASSERT_EQ(e.prims.size(), 1u);
    EXPECT_EQ(e.prims[0].ident.slot, 1);
}

TEST(Adl, DiscardAllParses) {
    const auto m = adl::parse_machine(R"(
machine r
manager unit u
manager reset rs
state I initial
state H
edge I -> H { allocate u 0 }
edge H -> I priority 9 {
  inquire rs 0
  discard_all
}
edge H -> I { release u 0 }
)");
    EXPECT_TRUE(analysis::lint(m->graph).clean());
}

TEST(Adl, ErrorsCarryLineNumbers) {
    try {
        adl::parse_machine("machine x\nstate I initial\nbogus\n");
        FAIL() << "expected adl_error";
    } catch (const adl::adl_error& e) {
        EXPECT_EQ(e.line(), 3u);
    }
    EXPECT_THROW(adl::parse_machine("machine x\nedge A -> B { }\n"), adl::adl_error);
    EXPECT_THROW(adl::parse_machine("machine x\nstate I\nstate I\n"), adl::adl_error);
    EXPECT_THROW(adl::parse_machine("machine x\nmanager bogus m\n"), adl::adl_error);
    EXPECT_THROW(
        adl::parse_machine("machine x\nstate I initial\nstate A\n"
                           "edge I -> A { allocate ghost 0 }\n"),
        adl::adl_error);
    EXPECT_THROW(adl::parse_machine(""), adl::adl_error);
}

TEST(Adl, RejectsOutOfRangeNumbersAndSlots) {
    const auto error_line = [](const std::string& src) -> unsigned {
        try {
            adl::parse_machine(src);
        } catch (const adl::adl_error& e) {
            return e.line();
        }
        return 0;
    };
    const std::string head = "machine x\nstate I initial\nmanager unit u\n";
    // Slot indices must fall inside the declared `slots`, which default to 0.
    EXPECT_EQ(error_line("machine x\nslots 1\nmanager unit u\nstate I initial\n"
                         "edge I -> I {\n  allocate u slot 5\n}\n"),
              6u);
    EXPECT_EQ(error_line(head + "edge I -> I { allocate u slot 0 }\n"), 4u);
    EXPECT_EQ(error_line("machine x\nstate I initial\nmanager unit u\n"
                         "edge I -> I { allocate u slot 2 }\nslots 2\n"),
              4u);
    // Numbers must fit 64 bits and the field they fill.
    EXPECT_EQ(error_line("machine x\nslots 99999999999\nstate I\n"), 2u);
    EXPECT_EQ(error_line("machine x\nslots 4294967295\nstate I\n"), 2u);
    EXPECT_EQ(error_line(head + "manager pool p capacity 99999999999\n"), 4u);
    EXPECT_EQ(error_line(head + "manager queue q capacity 4 alloc_bw 0x100000000\n"), 4u);
    EXPECT_EQ(error_line(head + "manager queue q capacity 4 release_bw 4294967296\n"), 4u);
    EXPECT_EQ(error_line(head + "manager regfile r regs 129\n"), 4u);
    EXPECT_EQ(error_line(head + "manager rename n regs 65 buffers 4\n"), 4u);
    EXPECT_EQ(error_line(head + "manager rename n regs 32 buffers 4294967296\n"), 4u);
    EXPECT_EQ(error_line(head + "edge I -> I priority 2147483648 { }\n"), 4u);
    EXPECT_EQ(error_line(head + "edge I -> I { allocate u 18446744073709551616 }\n"), 4u);
    EXPECT_EQ(error_line(head + "edge I -> I { allocate u 0x10000000000000000 }\n"), 4u);
    // The largest values that fit still parse.
    EXPECT_NO_THROW(adl::parse_machine(
        head + "manager pool p capacity 4294967295\nmanager regfile r regs 128\n"
               "edge I -> I priority 2147483647 { allocate u 18446744073709551615 }\n"));
}

TEST(Adl, BindsManagersSuppliedByTheModel) {
    core::unit_token_manager stage("m_s");
    const adl::manager_registry supplied{{"m_s", &stage}};
    const char* src = "machine x\nstate I initial\nstate A\nedge I -> A { allocate m_s 0 }\n";
    const auto m = adl::parse_machine(src, {}, false, supplied);
    EXPECT_TRUE(m->managers.empty());
    EXPECT_EQ(m->find_manager("m_s"), nullptr);
    ASSERT_EQ(m->graph.edge(0).prims.size(), 1u);
    EXPECT_EQ(m->graph.edge(0).prims[0].mgr, &stage);
    // Unknown names stay errors, and a text may not redeclare a supplied one.
    EXPECT_THROW(adl::parse_machine(src), adl::adl_error);
    EXPECT_THROW(adl::parse_machine(std::string("manager unit m_s\n") + src, {}, false, supplied),
                 adl::adl_error);
}

TEST(Adl, UnknownActionRejectedUnlessAllowed) {
    const char* src = R"(
machine a
manager unit u
state I initial
state A
edge I -> A { action mystery }
)";
    EXPECT_THROW(adl::parse_machine(src), adl::adl_error);
    EXPECT_NO_THROW(adl::parse_machine(src, {}, /*allow_missing_actions=*/true));
}

TEST(Adl, AnalysisComposesWithAdlMachines) {
    const auto m = adl::parse_machine(k_pipe, {}, true);
    const auto rep = analysis::lint(m->graph);
    EXPECT_TRUE(rep.clean());
    const auto t = analysis::extract_reservation_table(m->graph, "m_w");
    ASSERT_EQ(t.table.size(), 3u);
    EXPECT_TRUE(analysis::allocation_order_consistent(m->graph));
    EXPECT_NE(analysis::to_dot(m->graph).find("m_d"), std::string::npos);
}

}  // namespace
