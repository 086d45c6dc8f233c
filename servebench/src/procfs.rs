//! Process accounting read from `/proc/<pid>`: CPU time from `stat`, peak
//! resident memory from `status`.

use std::io;

/// Clock ticks per second of the `stat` time fields (`USER_HZ`, fixed at
/// 100 by the Linux user-space ABI).
const TICKS_PER_SEC: u64 = 100;

/// User plus system CPU time, in clock ticks, from the text of
/// `/proc/<pid>/stat`. The command name (field 2) may itself hold spaces
/// and parentheses, so fields are counted after its closing `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set size (`VmHWM`), in KiB, from the text of
/// `/proc/<pid>/status`.
pub fn parse_status_hwm_kib(status: &str) -> Option<u64> {
    let value = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    value.trim().strip_suffix("kB")?.trim().parse().ok()
}

fn invalid(what: &str, pid: u32) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unparsable {what} for pid {pid}"),
    )
}

/// CPU time (user + system, all threads) consumed by `pid` so far, in
/// microseconds.
pub fn cpu_us(pid: u32) -> io::Result<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    let ticks = parse_stat_cpu_ticks(&text).ok_or_else(|| invalid("stat", pid))?;
    Ok(ticks * 1_000_000 / TICKS_PER_SEC)
}

/// Peak resident memory of `pid`, in MiB.
pub fn peak_rss_mib(pid: u32) -> io::Result<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    let kib = parse_status_hwm_kib(&text).ok_or_else(|| invalid("status", pid))?;
    Ok(kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_command_name() {
        let stat = "4242 (fg (serve) x) S 1 4242 4242 0 -1 4194560 2811 0 0 0 \
                    731 96 0 0 20 0 7 0 123456 1234567 4321 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(731 + 96));
        assert_eq!(parse_stat_cpu_ticks("1 (x) S 1 2"), None);
        assert_eq!(parse_stat_cpu_ticks("no parenthesis"), None);
    }

    #[test]
    fn status_peak_rss_is_read_in_kib() {
        let status =
            "Name:\tfg-serve\nVmPeak:\t  300000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t   40000 kB\n";
        assert_eq!(parse_status_hwm_kib(status), Some(51_200));
        assert_eq!(parse_status_hwm_kib("Name:\tx\n"), None);
        assert_eq!(parse_status_hwm_kib("VmHWM:\t12 MB\n"), None);
    }

    #[test]
    fn own_process_is_readable() {
        let pid = std::process::id();
        assert!(peak_rss_mib(pid).unwrap() > 0.0);
        cpu_us(pid).unwrap();
    }
}
