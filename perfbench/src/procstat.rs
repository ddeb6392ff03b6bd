//! Process counters read from outside the program, through `/proc`.

use std::fs;

/// One sample of the process-wide counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// `syscr + syscw` from `/proc/self/io`.
    pub syscalls: u64,
    /// Voluntary plus involuntary context switches, summed over every
    /// live thread in `/proc/self/task/*/status`.
    pub ctx_switches: u64,
    /// `VmHWM` (peak resident set) from `/proc/self/status`, kB.
    pub hwm_kb: u64,
    /// TCP segments sent in this network namespace (`OutSegs` of
    /// `/proc/net/snmp`). Socket `send`/`recv` calls do not show in
    /// `/proc/self/io`, so this is the count that sees the transport.
    pub tcp_segments: u64,
}

fn tcp_out_segments(snmp: &str) -> u64 {
    let mut tcp = snmp.lines().filter(|l| l.starts_with("Tcp:"));
    let (Some(header), Some(values)) = (tcp.next(), tcp.next()) else {
        return 0;
    };
    header
        .split_whitespace()
        .zip(values.split_whitespace())
        .find(|(name, _)| *name == "OutSegs")
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0)
}

fn field(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|line| line.strip_prefix(name))
        .and_then(|rest| rest.trim_start_matches(':').split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

impl ProcSample {
    pub fn now() -> ProcSample {
        let io = fs::read_to_string("/proc/self/io").unwrap_or_default();
        let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
        let mut ctx_switches = 0;
        if let Ok(tasks) = fs::read_dir("/proc/self/task") {
            for task in tasks.flatten() {
                if let Ok(s) = fs::read_to_string(task.path().join("status")) {
                    ctx_switches += field(&s, "voluntary_ctxt_switches")
                        + field(&s, "nonvoluntary_ctxt_switches");
                }
            }
        }
        ProcSample {
            syscalls: field(&io, "syscr") + field(&io, "syscw"),
            ctx_switches,
            hwm_kb: field(&status, "VmHWM"),
            tcp_segments: tcp_out_segments(
                &fs::read_to_string("/proc/net/snmp").unwrap_or_default(),
            ),
        }
    }

    /// Counter growth from `earlier` to `self`. Context switches of
    /// threads that exited in between are lost, so that delta saturates.
    pub fn since(&self, earlier: &ProcSample) -> ProcSample {
        ProcSample {
            syscalls: self.syscalls.saturating_sub(earlier.syscalls),
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
            hwm_kb: self.hwm_kb,
            tcp_segments: self.tcp_segments.saturating_sub(earlier.tcp_segments),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_proc_fields() {
        let text = "Name:\tx\nVmHWM:\t  1234 kB\nvoluntary_ctxt_switches:\t7\n";
        assert_eq!(field(text, "VmHWM"), 1234);
        assert_eq!(field(text, "voluntary_ctxt_switches"), 7);
        assert_eq!(field(text, "nonvoluntary_ctxt_switches"), 0);
        let snmp = "Tcp: RtoMin InSegs OutSegs\nTcp: 200 10 12\nUdp: InDatagrams\n";
        assert_eq!(tcp_out_segments(snmp), 12);
        let now = ProcSample::now();
        assert!(now.hwm_kb > 0 && now.ctx_switches > 0);
    }
}
