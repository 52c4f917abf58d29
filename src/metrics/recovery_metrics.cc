#include "metrics/recovery_metrics.h"

namespace frugal {

TablePrinter
RecoveryTable(const RecoveryCounters &c, const std::string &caption)
{
    TablePrinter table(caption, {"metric", "value"});
    table.AddRow({"faults injected", FormatCount(
                                         static_cast<double>(c.faults_injected))});
    table.AddRow(
        {"write retries", FormatCount(static_cast<double>(c.write_retries))});
    table.AddRow({"flusher deaths",
                  FormatCount(static_cast<double>(c.flusher_deaths))});
    table.AddRow({"flusher respawns",
                  FormatCount(static_cast<double>(c.flusher_respawns))});
    table.AddRow({"claims reclaimed",
                  FormatCount(static_cast<double>(c.claims_reclaimed))});
    table.AddRow({"trainer deaths",
                  FormatCount(static_cast<double>(c.trainer_deaths))});
    table.AddRow({"ownership remaps",
                  FormatCount(static_cast<double>(c.ownership_remaps))});
    table.AddRow({"stalls detected",
                  FormatCount(static_cast<double>(c.stalls_detected))});
    table.AddRow({"watchdog recoveries",
                  FormatCount(static_cast<double>(c.watchdog_recoveries))});
    table.AddRow({"watchdog polls",
                  FormatCount(static_cast<double>(c.watchdog_polls))});
    table.AddRow({"checkpoint barriers",
                  FormatCount(static_cast<double>(c.checkpoint_barriers))});
    table.AddRow({"checkpoint retries",
                  FormatCount(static_cast<double>(c.checkpoint_retries))});
    table.AddRow(
        {"checkpoint pause", FormatSeconds(c.checkpoint_pause_seconds)});
    table.AddRow(
        {"checkpoint save", FormatSeconds(c.checkpoint_save_seconds)});
    table.AddRow({"recovery time", FormatSeconds(c.recovery_seconds)});
    return table;
}

TablePrinter
OverloadTable(const OverloadCounters &c, const std::string &caption)
{
    TablePrinter table(caption, {"metric", "value"});
    table.AddRow({"pressure transitions",
                  FormatCount(static_cast<double>(c.pressure_transitions))});
    table.AddRow({"peak stage",
                  FormatCount(static_cast<double>(c.peak_stage))});
    table.AddRow({"peak tracked bytes",
                  FormatCount(static_cast<double>(c.peak_tracked_bytes))});
    table.AddRow({"cache rows shed",
                  FormatCount(static_cast<double>(c.cache_rows_shed))});
    return table;
}

TablePrinter
PrefetchTable(const PrefetchCounters &c, const std::string &caption)
{
    TablePrinter table(caption, {"metric", "value"});
    table.AddRow({"rows warmed",
                  FormatCount(static_cast<double>(c.rows_warmed))});
    table.AddRow({"warm hits",
                  FormatCount(static_cast<double>(c.warm_hits))});
    table.AddRow({"dead evictions",
                  FormatCount(static_cast<double>(c.dead_evictions))});
    table.AddRow({"late warms",
                  FormatCount(static_cast<double>(c.late_warms))});
    table.AddRow({"warms shed",
                  FormatCount(static_cast<double>(c.warms_shed))});
    return table;
}

}  // namespace frugal
