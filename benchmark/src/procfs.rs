//! What the kernel says about this process: CPU time, peak resident set,
//! bytes written.  Parsers are pure so they can be tested on fixture text.

/// Linux reports `/proc/<pid>/stat` times in `USER_HZ` ticks, which is 100
/// on every architecture the kernel exposes to user space.
const TICKS_PER_SECOND: f64 = 100.0;

/// User+system CPU ticks of the process and of its reaped children, from the
/// text of `/proc/<pid>/stat`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    // The command name (field 2) is parenthesised and may itself contain
    // spaces and parentheses; fields are positional only after its *last*
    // closing parenthesis.  Field 3 (state) is then index 0.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime, stime, cutime, cstime are fields 14..=17.
    fields
        .get(11..15)?
        .iter()
        .map(|f| f.parse::<u64>().ok())
        .sum()
}

/// `VmHWM` (peak resident set) in KiB, from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let value = parts.next()?.parse().ok()?;
    (parts.next() == Some("kB")).then_some(value)
}

/// `wchar` (bytes passed to write-family system calls) from the text of
/// `/proc/<pid>/io`.
pub fn parse_io_wchar(io: &str) -> Option<u64> {
    io.lines()
        .find_map(|l| l.strip_prefix("wchar:"))?
        .trim()
        .parse()
        .ok()
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
}

/// CPU seconds consumed so far by this process and the children it has
/// waited for.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = read("/proc/self/stat")?;
    parse_stat_cpu_ticks(&stat)
        .map(|ticks| ticks as f64 / TICKS_PER_SECOND)
        .ok_or_else(|| format!("unparseable /proc/self/stat: {stat:?}"))
}

/// Peak resident set of this process so far, in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = read("/proc/self/status")?;
    parse_vm_hwm_kib(&status)
        .map(|kib| kib as f64 / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Bytes this process has written so far.
pub fn bytes_written() -> Result<u64, String> {
    let io = read("/proc/self/io")?;
    parse_io_wchar(&io).ok_or_else(|| "no wchar line in /proc/self/io".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_ticks_survive_a_hostile_command_name() {
        let plain = "24769 (cat) R 24763 24769 24763 0 -1 4194304 80 0 0 0 \
                     7 3 11 2 20 0 1 0 441577 2703360 285 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(plain), Some(7 + 3 + 11 + 2));
        let hostile = "1 (a b) c) 9 (x) S 1 1 1 0 -1 0 0 0 0 0 200 50 0 0 20 0 2 0 5 0 0 0";
        assert_eq!(parse_stat_cpu_ticks(hostile), Some(250));
        assert_eq!(parse_stat_cpu_ticks("1 (short) S 1 2 3"), None);
        assert_eq!(parse_stat_cpu_ticks("no parens at all"), None);
        let garbled = "1 (x) S 1 1 1 0 -1 0 0 0 0 0 x 50 0 0 20";
        assert_eq!(parse_stat_cpu_ticks(garbled), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status = "Name:\tbench\nVmPeak:\t  200000 kB\nVmHWM:\t  140288 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(140_288));
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t 1000 kB\n"), None);
        assert_eq!(
            parse_vm_hwm_kib("VmHWM:\t 12 MB\n"),
            None,
            "unit is checked"
        );
    }

    #[test]
    fn io_wchar() {
        let io = "rchar: 3980\nwchar: 123456\nsyscr: 9\nwrite_bytes: 0\n";
        assert_eq!(parse_io_wchar(io), Some(123_456));
        assert_eq!(parse_io_wchar("rchar: 1\n"), None);
    }
}
