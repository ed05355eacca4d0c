// fleet.log under torn tails. A controller crash can cut the log anywhere
// inside its last event. Recovery must drop exactly that event, and every
// event the recovered controller appends afterwards must survive the next
// recovery — a torn tail left in place would hide them all.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/temp_path.hpp"
#include "fleet/fleet.hpp"
#include "support/error.hpp"

namespace p4all::fleet {
namespace {

namespace fs = std::filesystem;

FleetOptions log_options(const std::string& dir) {
    FleetOptions options;
    options.runtime.compile.backend = compiler::Backend::Greedy;
    options.runtime.exact_portfolio = false;
    options.runtime.drift.window = 256;
    options.runtime.drift.top_k = 16;
    options.journal_root = dir;
    return options;
}

const std::vector<SwitchSpec> kThreeSwitches = {{"sw0", 0}, {"sw1", 0}, {"sw2", 0}};
const std::vector<TenantSpec> kOneTenant = {{"t0", "netcache"}};

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

void write_file(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
}

std::vector<std::string> rendered(const std::vector<FleetEvent>& events,
                                  std::size_t n = std::numeric_limits<std::size_t>::max()) {
    std::vector<std::string> out;
    for (std::size_t i = 0; i < n && i < events.size(); ++i) out.push_back(events[i].to_string());
    return out;
}

class FleetLog : public ::testing::Test {
protected:
    void TearDown() override {
        fs::remove_all(dir_);
        fs::remove_all(pristine_);
    }
    std::string dir_ = test_util::temp_path("p4all_fleet_log");
    std::string pristine_ = dir_ + "_pristine";
};

TEST_F(FleetLog, EveryCutInsideTheLastEventLosesOnlyThatEvent) {
    fs::remove_all(dir_);
    const std::string log = dir_ + "/fleet.log";
    std::size_t written = 0;
    std::uintmax_t last_start = 0;
    {
        FleetController fleet(log_options(dir_), kThreeSwitches, kOneTenant);
        ASSERT_EQ(fleet.home_of("t0"), "sw0");
        fleet.kill_switch("sw1");
        last_start = fs::file_size(log);
        // Killing an empty switch logs exactly one event: the one torn below.
        fleet.kill_switch("sw2");
        written = fleet.events().size();
        ASSERT_EQ(fleet.events().back().kind, FleetEventKind::SwitchDead);
        ASSERT_EQ(fleet.events().back().where, "sw2");
    }
    const std::string full = read_file(log);
    ASSERT_GT(full.size(), last_start);
    fs::remove_all(pristine_);
    fs::copy(dir_, pristine_, fs::copy_options::recursive);

    for (std::size_t cut = last_start; cut < full.size(); ++cut) {
        fs::remove_all(dir_);
        fs::copy(pristine_, dir_, fs::copy_options::recursive);
        write_file(log, full.substr(0, cut));

        FleetRecoveryReport first;
        std::vector<std::string> expected;
        {
            auto fleet = FleetController::recover(log_options(dir_), kThreeSwitches, kOneTenant,
                                                  &first);
            EXPECT_EQ(first.events_replayed, written - 1) << "cut at " << cut;
            EXPECT_EQ(first.log_clean, cut == last_start) << "cut at " << cut;
            EXPECT_EQ(fleet->switch_state("sw1"), Liveness::Dead) << "cut at " << cut;
            EXPECT_EQ(fleet->switch_state("sw2"), Liveness::Alive)
                << "cut at " << cut << ": the torn kill must not replay";
            // Reviving appends events behind the recovery's own.
            fleet->revive_switch("sw1");
            expected = rendered(fleet->events());
        }
        EXPECT_EQ(expected.size(), written + 1) << "cut at " << cut;

        FleetRecoveryReport second;
        auto fleet =
            FleetController::recover(log_options(dir_), kThreeSwitches, kOneTenant, &second);
        EXPECT_TRUE(second.log_clean) << "cut at " << cut;
        EXPECT_EQ(second.events_replayed, expected.size()) << "cut at " << cut;
        EXPECT_EQ(rendered(fleet->events(), expected.size()), expected) << "cut at " << cut;
        EXPECT_EQ(fleet->switch_state("sw1"), Liveness::Alive)
            << "cut at " << cut << ": the revived switch must stay revived";
        EXPECT_EQ(fleet->home_of("t0"), "sw0") << "cut at " << cut;
    }
}

TEST_F(FleetLog, ALogWithoutItsHeaderIsRefused) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    // The line-per-event JSON format fleet.log used to have.
    write_file(dir_ + "/fleet.log",
               "{\"seq\":1,\"kind\":\"admit\",\"tenant\":\"t0\",\"where\":\"sw0\","
               "\"level\":0,\"detail\":\"initial placement\"}\n");
    try {
        (void)FleetController::recover(log_options(dir_), kThreeSwitches, kOneTenant);
        FAIL() << "a header-less fleet.log was replayed";
    } catch (const support::Error& e) {
        EXPECT_EQ(e.code(), support::Errc::FleetJournalError);
        EXPECT_NE(std::string(e.what()).find("P4ALL-0506"), std::string::npos) << e.what();
    }
}

}  // namespace
}  // namespace p4all::fleet
