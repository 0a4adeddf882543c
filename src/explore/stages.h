/**
 * @file
 * The campaign's named stages.  runCampaign() runs the blind matrix;
 * each stage below then reads and extends its CampaignReport.
 * bench_explore runs them in this order: diagnoseStage,
 * abortFlushStage, replayCorpusStage, guidedStage, and fix::fixStage
 * (fix/validate.h).  Stages replay one schedule per target outside the
 * worker pool (the guided search folds in batch order), so their
 * output is as worker-count independent as the matrix's.  A stage
 * takes its output directory as an argument, never from
 * CampaignOptions, so a campaign derived from another one cannot
 * inherit a stage.  The CLIs' single-schedule modes use the same
 * pieces: diagnoseSchedule(), diagnoseRecordedRun() and
 * obs::replay::recordRun() / minimizeRecordedRun().
 */
#pragma once

#include <string>
#include <vector>

#include "explore/campaign.h"
#include "explore/guided.h"
#include "obs/replay/minimize.h"

namespace conair::explore {

/** Per-thread ring depth of diagnosis-mode recordings: shared accesses
 *  are roughly one event per scheduling tick. */
inline constexpr size_t kDiagnosisRingCapacity = 65536;

/** A postmortem diagnosis and the leg its trace came from. */
struct LegDiagnosis
{
    obs::pm::RecoveryReport report;
    bool hardened = false; ///< the hardened leg was diagnosed

    const char *leg() const { return hardened ? "hardened" : "unhardened"; }
};

/** Runs campaign cell (@p t, @p s) with both Fused legs recorded in
 *  diagnosis mode into the two recorders, and diagnoses the hardened
 *  leg if it recorded RecoveryDone or FailureSite (ConAir's retries
 *  let the racing partner's access land in its trace; the unhardened
 *  leg dies at the failure site first), else the unhardened leg. */
LegDiagnosis diagnoseSchedule(const Target &t, const ScheduleSpec &s,
                              const CampaignOptions &opts,
                              obs::FlightRecorder &plainRec,
                              obs::FlightRecorder &hardRec);

/** Diagnoses a recorded unhardened run, by the same leg rule, against
 *  the hardened build re-run under the same configuration. */
LegDiagnosis diagnoseRecordedRun(const Target &t,
                                 const obs::replay::RecordedRun &run,
                                 const std::string &token);

/** Stage 1: diagnoses every target's first failing schedule
 *  (TargetReport::diagnosis and diagnosisLeg). */
void diagnoseStage(const std::vector<Target> &targets,
                   const CampaignOptions &opts, CampaignReport &rep);

/** Stage 2, flush-on-abort: re-runs each target's first oracle
 *  violation (divergence, else unrecovered failure) instrumented and
 *  writes the legs' trace and diagnosis into @p dir
 *  (TargetReport::abortArtifacts).  Returns "" or the first error. */
std::string abortFlushStage(const std::vector<Target> &targets,
                            const CampaignOptions &opts,
                            const std::string &dir,
                            CampaignReport &rep);

/** Stage 3, replay corpus: records each first failing schedule
 *  replay-grade, ddmin-minimises it (failure and verdict preserved),
 *  checks it replays under Reference, and saves @p dir/<kernel>.replay.
 *  Failures land in TargetReport::replayError. */
void replayCorpusStage(const std::vector<Target> &targets,
                       const CampaignOptions &opts,
                       const std::string &dir, CampaignReport &rep);

/** Stage 4, guided search: runGuided() per target, fresh seeds from
 *  the matrix's first point-taking policy (overriding @p g's).  Fills
 *  TargetReport::guided, adds its oracle verdicts to the totals, and
 *  with a @p corpusDir saves DIR/<kernel>.corpus (errors in
 *  GuidedSummary::error). */
void guidedStage(const std::vector<Target> &targets,
                 const CampaignOptions &opts, const GuidedOptions &g,
                 const std::string &corpusDir, CampaignReport &rep);

} // namespace conair::explore
