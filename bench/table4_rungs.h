// Table IV's baseline ladder: the three pipeline specs that stand in for
// the ISPD'09 contest flows.  bench_table4_contest runs them and
// tests/test_flow.cpp pins their results, so both read this one copy.

#pragma once

namespace contango::table4 {

/// CONSTR: construction only, one inverter size in the insertion ladder.
inline constexpr const char* kConstrSpec =
    "dme,repair,insert:max_ladder=1,polarity";
/// WSIZE: CONSTR plus one top-level wiresizing round.
inline constexpr const char* kWsizeSpec =
    "dme,repair,insert:max_ladder=1,polarity,twsz:rounds=1";
/// TUNED: WSIZE plus one top-level wiresnaking round.
inline constexpr const char* kTunedSpec =
    "dme,repair,insert:max_ladder=1,polarity,twsz:rounds=1,twsn:rounds=1";

}  // namespace contango::table4
