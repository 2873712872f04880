/**
 * @file
 * RunLedger framing and recovery semantics: record round-trips,
 * truncated tails, checksum corruption (skip-and-warn, poisoned
 * commits), empty ledgers, version mismatches, and the LedgerView
 * derived-view aggregator.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/ledger.hh"

namespace vmargin
{
namespace
{

RunRecord
makeRun(const std::string &workload, CoreId core, MilliVolt voltage,
        uint32_t run_index = 0, bool crash = false)
{
    RunRecord run;
    run.key.workloadId = workload;
    run.key.core = core;
    run.key.voltage = voltage;
    run.key.frequency = 2400;
    run.key.campaign = 0;
    run.key.runIndex = run_index;
    if (crash) {
        run.effects.add(Effect::SC);
        run.exitCode = 139;
    }
    run.seconds = 1.25 + 0.001 * voltage;
    run.avgIpc = 1.618033988749895;
    run.activityFactor = 0.5772156649015329;
    run.correctedBySite["L2Cache"] = 3;
    return run;
}

CellMeasurement
makeCell(const std::string &workload, CoreId core)
{
    CellMeasurement cell;
    cell.workloadId = workload;
    cell.core = core;
    cell.runs = {makeRun(workload, core, 930, 0),
                 makeRun(workload, core, 925, 1),
                 makeRun(workload, core, 920, 2, true)};
    cell.watchdogInterventions = 2;
    cell.telemetry.retries = 5;
    cell.telemetry.lostMeasurements = 1;
    return cell;
}

TEST(LedgerCodec, RunRecordRoundTripsBitExact)
{
    const RunRecord run = makeRun("bwaves/ref", 3, 905, 7, true);
    LedgerRecord decoded;
    ASSERT_TRUE(decodeLedgerRecord(encodeRunRecord(run), decoded));
    ASSERT_EQ(decoded.kind, LedgerRecord::Kind::Run);
    EXPECT_EQ(decoded.run.key.workloadId, run.key.workloadId);
    EXPECT_EQ(decoded.run.key.core, run.key.core);
    EXPECT_EQ(decoded.run.key.voltage, run.key.voltage);
    EXPECT_EQ(decoded.run.key.runIndex, run.key.runIndex);
    EXPECT_EQ(decoded.run.effects.toString(),
              run.effects.toString());
    EXPECT_EQ(decoded.run.exitCode, run.exitCode);
    // Bit-exact double round-trip is what makes replayed reports
    // byte-identical to fresh ones.
    EXPECT_EQ(decoded.run.seconds, run.seconds);
    EXPECT_EQ(decoded.run.avgIpc, run.avgIpc);
    EXPECT_EQ(decoded.run.activityFactor, run.activityFactor);
    EXPECT_EQ(decoded.run.correctedBySite, run.correctedBySite);
}

TEST(LedgerCodec, CommitRoundTrips)
{
    CellCommit commit;
    commit.configHash = 0xdeadbeefcafef00dull;
    commit.workloadId = "leslie3d/ref";
    commit.core = 5;
    commit.runCount = 42;
    commit.watchdogInterventions = 3;
    commit.telemetry.retries = 11;
    commit.telemetry.backoffUsTotal = 12345;
    LedgerRecord decoded;
    ASSERT_TRUE(
        decodeLedgerRecord(encodeCellCommit(commit), decoded));
    ASSERT_EQ(decoded.kind, LedgerRecord::Kind::Commit);
    EXPECT_EQ(decoded.commit.configHash, commit.configHash);
    EXPECT_EQ(decoded.commit.workloadId, commit.workloadId);
    EXPECT_EQ(decoded.commit.runCount, commit.runCount);
    EXPECT_EQ(decoded.commit.telemetry.retries, 11u);
    EXPECT_EQ(decoded.commit.telemetry.backoffUsTotal, 12345u);
}

TEST(LedgerCodec, RejectsUnknownKindAndShortPayloads)
{
    LedgerRecord decoded;
    EXPECT_FALSE(decodeLedgerRecord("", decoded));
    EXPECT_FALSE(decodeLedgerRecord("\x07junk", decoded));
    const std::string run = encodeRunRecord(makeRun("x", 0, 900));
    EXPECT_FALSE(decodeLedgerRecord(
        std::string_view(run).substr(0, run.size() / 2), decoded));
}

TEST(RunLedger, EmptyLedgerRoundTrips)
{
    const std::string path = "/tmp/vmargin_test_ledger_empty";
    std::remove(path.c_str());
    {
        RunLedger ledger(path, "test");
        ledger.open("header-v-test");
        EXPECT_EQ(ledger.size(), 0u);
    }
    // Reopen: just the magic and header frame, zero cells.
    RunLedger reopened(path, "test");
    reopened.open("header-v-test");
    EXPECT_EQ(reopened.size(), 0u);
    EXPECT_TRUE(reopened.entries().empty());
    EXPECT_EQ(reopened.find(0, ChipRef{}, "any", 0), nullptr);
    std::remove(path.c_str());
}

TEST(RunLedger, AppendFindRoundTripsAcrossReopen)
{
    const std::string path = "/tmp/vmargin_test_ledger_rt";
    std::remove(path.c_str());
    const CellMeasurement cell = makeCell("bwaves/ref", 2);
    {
        RunLedger ledger(path, "test");
        ledger.open("h");
        ledger.append(77, cell);
        ledger.append(77, makeCell("leslie3d/ref", 4));
        // Duplicate key: first write wins.
        ledger.append(77, makeCell("bwaves/ref", 2));
        EXPECT_EQ(ledger.size(), 2u);
    }
    RunLedger reopened(path, "test");
    reopened.open("h");
    ASSERT_EQ(reopened.size(), 2u);
    const CellMeasurement *found =
        reopened.find(77, ChipRef{}, "bwaves/ref", 2);
    ASSERT_NE(found, nullptr);
    ASSERT_EQ(found->runs.size(), cell.runs.size());
    EXPECT_EQ(found->runs[2].effects.toString(), "SC");
    EXPECT_EQ(found->watchdogInterventions, 2u);
    EXPECT_EQ(found->telemetry.retries, 5u);
    // Different config hash: not found.
    EXPECT_EQ(reopened.find(78, ChipRef{}, "bwaves/ref", 2), nullptr);
    std::remove(path.c_str());
}

TEST(RunLedger, TruncatedTailIsDiscarded)
{
    const std::string path = "/tmp/vmargin_test_ledger_trunc";
    std::remove(path.c_str());
    {
        RunLedger ledger(path, "test");
        ledger.open("h");
        ledger.append(1, makeCell("bwaves/ref", 0));
    }
    // A killed process leaves half a frame: committed cells survive,
    // the tail does not.
    {
        std::string frame;
        appendFrame(frame,
                    encodeRunRecord(makeRun("leslie3d/ref", 1, 930)));
        std::ofstream out(path, std::ios::binary | std::ios::app);
        out << frame.substr(0, frame.size() - 3);
    }
    RunLedger reopened(path, "test");
    reopened.open("h");
    EXPECT_EQ(reopened.size(), 1u);
    EXPECT_NE(reopened.find(1, ChipRef{}, "bwaves/ref", 0), nullptr);

    // The torn bytes are cut from the file on open, so a resumed
    // session's re-run cell appends on a clean frame boundary.
    reopened.append(1, makeCell("leslie3d/ref", 1));
    RunLedger again(path, "test");
    again.open("h");
    EXPECT_EQ(again.size(), 2u);
    EXPECT_NE(again.find(1, ChipRef{}, "leslie3d/ref", 1), nullptr);
    std::remove(path.c_str());
}

TEST(RunLedger, TruncatedFramePrefixIsDiscarded)
{
    const std::string path = "/tmp/vmargin_test_ledger_prefix";
    std::remove(path.c_str());
    {
        RunLedger ledger(path, "test");
        ledger.open("h");
        ledger.append(1, makeCell("bwaves/ref", 0));
    }
    {
        // Fewer bytes than even a frame prefix needs.
        std::ofstream out(path, std::ios::binary | std::ios::app);
        out.write("\x03\x00\x00", 3);
    }
    RunLedger reopened(path, "test");
    reopened.open("h");
    EXPECT_EQ(reopened.size(), 1u);
    std::remove(path.c_str());
}

TEST(RunLedger, ChecksumMismatchSkipsRecordAndPoisonsCell)
{
    const std::string path = "/tmp/vmargin_test_ledger_crc";
    std::remove(path.c_str());
    {
        RunLedger ledger(path, "test");
        ledger.open("h");
        ledger.append(1, makeCell("bwaves/ref", 0));
        ledger.append(1, makeCell("leslie3d/ref", 1));
    }
    // Flip one payload byte inside the *first* cell's frames; its
    // commit can no longer prove integrity, so the whole first cell
    // must be dropped while the second survives untouched.
    {
        std::fstream file(path, std::ios::binary | std::ios::in |
                                    std::ios::out);
        // Past magic (4) + header frame; corrupt a byte well inside
        // the first run record's payload.
        file.seekg(4);
        uint32_t header_len = 0;
        file.read(reinterpret_cast<char *>(&header_len), 4);
        const std::streamoff target =
            4 + 8 + static_cast<std::streamoff>(header_len) + 8 + 20;
        file.seekg(target);
        char byte = 0;
        file.read(&byte, 1);
        byte = static_cast<char>(byte ^ 0x5a);
        file.seekp(target);
        file.write(&byte, 1);
    }
    RunLedger reopened(path, "test");
    reopened.open("h");
    EXPECT_EQ(reopened.size(), 1u)
        << "the corrupted cell must be dropped, not half-loaded";
    EXPECT_EQ(reopened.find(1, ChipRef{}, "bwaves/ref", 0), nullptr);
    EXPECT_NE(reopened.find(1, ChipRef{}, "leslie3d/ref", 1), nullptr);
    std::remove(path.c_str());
}

TEST(RunLedger, CommitWithWrongRunCountIsRefused)
{
    const std::string path = "/tmp/vmargin_test_ledger_count";
    std::remove(path.c_str());
    {
        RunLedger ledger(path, "test");
        ledger.open("h");
    }
    {
        // Hand-craft one run frame plus a commit claiming two runs:
        // the write-ahead contract says refuse the cell.
        std::string bytes;
        appendFrame(bytes,
                    encodeRunRecord(makeRun("bwaves/ref", 0, 930)));
        CellCommit commit;
        commit.configHash = 1;
        commit.workloadId = "bwaves/ref";
        commit.core = 0;
        commit.runCount = 2;
        appendFrame(bytes, encodeCellCommit(commit));
        std::ofstream out(path, std::ios::binary | std::ios::app);
        out << bytes;
    }
    RunLedger reopened(path, "test");
    reopened.open("h");
    EXPECT_EQ(reopened.size(), 0u);
    std::remove(path.c_str());
}

DaemonRoundRecord
makeDaemonRound(int round)
{
    DaemonRoundRecord record;
    record.round = round;
    record.voltage = 900 - 5 * round;
    record.energyJoule = 1.5 + 0.001953125 * round;
    record.nominalJoule = 2.25 + 0.001953125 * round;
    record.anyAbnormal = round % 2 == 1;
    record.crashed = round == 3;
    record.reexecutions = round % 2;
    record.nominalFallback = round == 2;
    record.fallbackReason = round == 2 ? 1 : 0;
    record.guardSteps = round;
    record.canaryProbe = round == 4;
    record.safePinned = round == 3;
    return record;
}

SupervisorCheckpoint
makeCheckpoint(int rounds_completed)
{
    SupervisorCheckpoint state;
    state.roundsCompleted = static_cast<uint32_t>(rounds_completed);
    state.legacyClampMv = 10;
    state.legacyStreak = 2;
    state.watchdogResets = 3;
    state.machineResponsive = rounds_completed % 2 == 0;
    state.hasSensorSample = true;
    state.sensorSample = 51.0 + 0.0009765625 * rounds_completed;
    state.telemetry.retries = 7;
    state.telemetry.backoffUsTotal = 12345;
    state.supervisorEnabled = true;
    state.guardSteps = 4;
    state.peakGuardSteps = 6;
    state.cleanStreak = 1;
    state.clampReason = 2;
    state.backoffEvents = 3;
    state.narrowEvents = 1;
    state.quarantines = 2;
    state.readmissions = 1;
    state.canaryRounds = 2;
    state.canaryFailures = 1;
    state.pinnedRounds = 5;
    state.recentCrashRounds = {3, 7};
    SupervisorCheckpoint::CoreState core;
    core.core = 4;
    core.mode = 1;
    core.ceRate = 0.6180339887498949;
    core.ueRate = 0.125;
    core.sdcRate = 0.0078125;
    core.crashRate = 0.30000000000000004;
    core.ceEvents = 11;
    core.ueEvents = 2;
    core.sdcEvents = 1;
    core.crashEvents = 1;
    core.cleanInQuarantine = 2;
    state.cores.push_back(core);
    return state;
}

TEST(LedgerCodec, DaemonRoundRoundTripsBitExact)
{
    const DaemonRoundRecord round = makeDaemonRound(3);
    LedgerRecord decoded;
    ASSERT_TRUE(
        decodeLedgerRecord(encodeDaemonRound(round), decoded));
    ASSERT_EQ(decoded.kind, LedgerRecord::Kind::DaemonRound);
    EXPECT_EQ(decoded.daemonRound.round, round.round);
    EXPECT_EQ(decoded.daemonRound.voltage, round.voltage);
    EXPECT_EQ(decoded.daemonRound.energyJoule, round.energyJoule);
    EXPECT_EQ(decoded.daemonRound.nominalJoule, round.nominalJoule);
    EXPECT_EQ(decoded.daemonRound.anyAbnormal, round.anyAbnormal);
    EXPECT_EQ(decoded.daemonRound.crashed, round.crashed);
    EXPECT_EQ(decoded.daemonRound.reexecutions, round.reexecutions);
    EXPECT_EQ(decoded.daemonRound.nominalFallback,
              round.nominalFallback);
    EXPECT_EQ(decoded.daemonRound.fallbackReason,
              round.fallbackReason);
    EXPECT_EQ(decoded.daemonRound.guardSteps, round.guardSteps);
    EXPECT_EQ(decoded.daemonRound.canaryProbe, round.canaryProbe);
    EXPECT_EQ(decoded.daemonRound.safePinned, round.safePinned);
}

TEST(LedgerCodec, SupervisorCheckpointRoundTripsBitExact)
{
    const SupervisorCheckpoint state = makeCheckpoint(5);
    LedgerRecord decoded;
    ASSERT_TRUE(decodeLedgerRecord(
        encodeSupervisorCheckpoint(state), decoded));
    ASSERT_EQ(decoded.kind, LedgerRecord::Kind::Supervisor);
    const SupervisorCheckpoint &got = decoded.supervisor;
    EXPECT_EQ(got.roundsCompleted, state.roundsCompleted);
    EXPECT_EQ(got.legacyClampMv, state.legacyClampMv);
    EXPECT_EQ(got.legacyStreak, state.legacyStreak);
    EXPECT_EQ(got.watchdogResets, state.watchdogResets);
    EXPECT_EQ(got.machineResponsive, state.machineResponsive);
    EXPECT_EQ(got.hasSensorSample, state.hasSensorSample);
    EXPECT_EQ(got.sensorSample, state.sensorSample);
    EXPECT_EQ(got.telemetry.retries, state.telemetry.retries);
    EXPECT_EQ(got.telemetry.backoffUsTotal,
              state.telemetry.backoffUsTotal);
    EXPECT_EQ(got.supervisorEnabled, state.supervisorEnabled);
    EXPECT_EQ(got.guardSteps, state.guardSteps);
    EXPECT_EQ(got.peakGuardSteps, state.peakGuardSteps);
    EXPECT_EQ(got.cleanStreak, state.cleanStreak);
    EXPECT_EQ(got.clampReason, state.clampReason);
    EXPECT_EQ(got.backoffEvents, state.backoffEvents);
    EXPECT_EQ(got.narrowEvents, state.narrowEvents);
    EXPECT_EQ(got.quarantines, state.quarantines);
    EXPECT_EQ(got.readmissions, state.readmissions);
    EXPECT_EQ(got.canaryRounds, state.canaryRounds);
    EXPECT_EQ(got.canaryFailures, state.canaryFailures);
    EXPECT_EQ(got.pinnedRounds, state.pinnedRounds);
    EXPECT_EQ(got.recentCrashRounds, state.recentCrashRounds);
    ASSERT_EQ(got.cores.size(), 1u);
    EXPECT_EQ(got.cores[0].core, state.cores[0].core);
    EXPECT_EQ(got.cores[0].mode, state.cores[0].mode);
    // Bit-exact rates are what make a restored supervisor take the
    // same decisions as the uninterrupted one.
    EXPECT_EQ(got.cores[0].ceRate, state.cores[0].ceRate);
    EXPECT_EQ(got.cores[0].ueRate, state.cores[0].ueRate);
    EXPECT_EQ(got.cores[0].sdcRate, state.cores[0].sdcRate);
    EXPECT_EQ(got.cores[0].crashRate, state.cores[0].crashRate);
    EXPECT_EQ(got.cores[0].ceEvents, state.cores[0].ceEvents);
    EXPECT_EQ(got.cores[0].cleanInQuarantine,
              state.cores[0].cleanInQuarantine);
}

TEST(RunLedger, DaemonRoundsSurviveReopen)
{
    const std::string path = "/tmp/vmargin_test_ledger_daemon";
    std::remove(path.c_str());
    {
        RunLedger ledger(path, "test");
        ledger.open("daemon-h");
        for (int round = 0; round < 3; ++round)
            ledger.appendDaemonRound(makeDaemonRound(round),
                                     makeCheckpoint(round + 1));
    }
    RunLedger reopened(path, "test");
    reopened.open("daemon-h");
    ASSERT_EQ(reopened.daemonRounds().size(), 3u);
    for (int round = 0; round < 3; ++round) {
        EXPECT_EQ(reopened.daemonRounds()[round].round.round, round);
        EXPECT_EQ(reopened.daemonRounds()[round].round.voltage,
                  900 - 5 * round);
        EXPECT_EQ(
            reopened.daemonRounds()[round].state.roundsCompleted,
            static_cast<uint32_t>(round + 1));
    }
    std::remove(path.c_str());
}

TEST(RunLedger, DaemonRoundWithoutCheckpointPoisonsTheTail)
{
    const std::string path = "/tmp/vmargin_test_ledger_orphan";
    std::remove(path.c_str());
    {
        RunLedger ledger(path, "test");
        ledger.open("daemon-h");
        ledger.appendDaemonRound(makeDaemonRound(0),
                                 makeCheckpoint(1));
    }
    {
        // A kill between the round frame and its checkpoint: the
        // orphan round — and any daemon frames after it — must be
        // discarded, even a well-formed later pair.
        std::string bytes;
        appendFrame(bytes, encodeDaemonRound(makeDaemonRound(1)));
        appendFrame(bytes, encodeDaemonRound(makeDaemonRound(2)));
        appendFrame(bytes,
                    encodeSupervisorCheckpoint(makeCheckpoint(3)));
        std::ofstream out(path, std::ios::binary | std::ios::app);
        out << bytes;
    }
    RunLedger reopened(path, "test");
    reopened.open("daemon-h");
    ASSERT_EQ(reopened.daemonRounds().size(), 1u)
        << "only the committed round survives";
    EXPECT_EQ(reopened.daemonRounds()[0].round.round, 0);
    std::remove(path.c_str());
}

TEST(RunLedger, OutOfSequenceDaemonRoundPoisonsTheTail)
{
    const std::string path = "/tmp/vmargin_test_ledger_seq";
    std::remove(path.c_str());
    {
        RunLedger ledger(path, "test");
        ledger.open("daemon-h");
        ledger.appendDaemonRound(makeDaemonRound(0),
                                 makeCheckpoint(1));
        ledger.appendDaemonRound(makeDaemonRound(1),
                                 makeCheckpoint(2));
    }
    {
        // Round 3 with round 2 missing: resuming past the hole
        // would continue a wrong trajectory.
        std::string bytes;
        appendFrame(bytes, encodeDaemonRound(makeDaemonRound(3)));
        appendFrame(bytes,
                    encodeSupervisorCheckpoint(makeCheckpoint(4)));
        std::ofstream out(path, std::ios::binary | std::ios::app);
        out << bytes;
    }
    RunLedger reopened(path, "test");
    reopened.open("daemon-h");
    ASSERT_EQ(reopened.daemonRounds().size(), 2u);
    EXPECT_EQ(reopened.daemonRounds()[1].round.round, 1);
    std::remove(path.c_str());
}

TEST(RunLedger, TruncatedDaemonCheckpointDiscardsItsRound)
{
    const std::string path = "/tmp/vmargin_test_ledger_dtrunc";
    std::remove(path.c_str());
    {
        RunLedger ledger(path, "test");
        ledger.open("daemon-h");
        ledger.appendDaemonRound(makeDaemonRound(0),
                                 makeCheckpoint(1));
        ledger.appendDaemonRound(makeDaemonRound(1),
                                 makeCheckpoint(2));
    }
    {
        // Chop into the second checkpoint: its round loses the
        // commit and must be re-run.
        std::fstream file(path, std::ios::binary | std::ios::in |
                                    std::ios::out | std::ios::ate);
        const std::streamoff size = file.tellg();
        std::filesystem::resize_file(
            path, static_cast<uintmax_t>(size - 5));
    }
    RunLedger reopened(path, "test");
    reopened.open("daemon-h");
    ASSERT_EQ(reopened.daemonRounds().size(), 1u);
    EXPECT_EQ(reopened.daemonRounds()[0].round.round, 0);
    std::remove(path.c_str());
}

TEST(RunLedgerDeath, RefusesForeignFile)
{
    const std::string path = "/tmp/vmargin_test_ledger_foreign";
    {
        std::ofstream out(path);
        out << "not a ledger at all\n";
    }
    RunLedger ledger(path, "test");
    EXPECT_EXIT(ledger.open("h"), ::testing::ExitedWithCode(1),
                "not a vmargin ledger");
    std::remove(path.c_str());
}

TEST(RunLedgerDeath, RefusesVersionMismatch)
{
    const std::string path = "/tmp/vmargin_test_ledger_version";
    std::remove(path.c_str());
    {
        // A file claiming framing version kLedgerVersion + 1: the
        // header frame is (u32 version, string header).
        std::string payload;
        const uint32_t version = kLedgerVersion + 1;
        for (int shift = 0; shift < 32; shift += 8)
            payload.push_back(
                static_cast<char>((version >> shift) & 0xffu));
        const std::string header = "h";
        const uint32_t len = static_cast<uint32_t>(header.size());
        for (int shift = 0; shift < 32; shift += 8)
            payload.push_back(
                static_cast<char>((len >> shift) & 0xffu));
        payload += header;

        std::string bytes(kLedgerMagic, 4);
        appendFrame(bytes, payload);
        std::ofstream out(path, std::ios::binary);
        out << bytes;
    }
    RunLedger ledger(path, "test");
    EXPECT_EXIT(ledger.open("h"), ::testing::ExitedWithCode(1),
                "refusing to mix versions");
    std::remove(path.c_str());
}

TEST(RunLedgerDeath, RefusesHeaderMismatchWithHint)
{
    const std::string path = "/tmp/vmargin_test_ledger_hdr";
    std::remove(path.c_str());
    {
        RunLedger ledger(path, "test");
        ledger.open("experiment-A");
    }
    RunLedger ledger(path, "test");
    EXPECT_EXIT(ledger.open("experiment-B", "belongs elsewhere"),
                ::testing::ExitedWithCode(1), "belongs elsewhere");
    std::remove(path.c_str());
}

TEST(LedgerView, DerivesRegionsSeverityAndOrder)
{
    LedgerView view;
    // Stream two cells interleaved; first-seen order must hold.
    view.add(makeRun("b", 1, 930));
    view.add(makeRun("a", 0, 930));
    view.add(makeRun("b", 1, 925, 1, true));
    view.add(makeRun("a", 0, 925));
    EXPECT_EQ(view.runCount(), 4u);
    ASSERT_EQ(view.cellOrder().size(), 2u);
    EXPECT_EQ(view.cellOrder()[0].workloadId, "b");
    EXPECT_EQ(view.cellOrder()[1].workloadId, "a");

    const RegionAnalysis *crashy = view.analysis("b", 1);
    ASSERT_NE(crashy, nullptr);
    EXPECT_EQ(crashy->regions.at(925), Region::Crash);
    EXPECT_EQ(crashy->regions.at(930), Region::Safe);
    EXPECT_EQ(crashy->vmin, 930);
    EXPECT_GT(view.severityByVoltage("b", 1).at(925), 0.0);
    EXPECT_EQ(view.severityByVoltage("a", 0).at(925), 0.0);
    EXPECT_EQ(view.analysis("missing", 9), nullptr);

    const auto cells = std::move(view).cellResults();
    ASSERT_EQ(cells.size(), 2u);
    EXPECT_EQ(cells[0].workloadId, "b");
    EXPECT_EQ(cells[1].analysis.vmin, 925);
}

TEST(LedgerView, LaterAddsInvalidateMemoizedAnalysis)
{
    LedgerView view;
    view.add(makeRun("a", 0, 930));
    EXPECT_EQ(view.analysis("a", 0)->vmin, 930);
    // A crash at 925 arrives after the first analysis: the view
    // must recompute, not serve the stale memo.
    view.add(makeRun("a", 0, 925, 1, true));
    EXPECT_EQ(view.analysis("a", 0)->regions.at(925),
              Region::Crash);
    EXPECT_EQ(view.analysis("a", 0)->vmin, 930);
}

} // namespace
} // namespace vmargin
