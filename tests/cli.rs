//! Integration tests for the `usi` command-line tool: build → persist →
//! query round-trips through real files and processes.

use std::io::Write;
use std::process::Command;

fn usi() -> Command {
    Command::new(env!("CARGO_BIN_EXE_usi"))
}

/// A path in this process's own scratch directory, so concurrent
/// `cargo test` runs never overwrite each other's files (the file names
/// are already unique per test).
fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("usi-cli-tests-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn build_query_roundtrip() {
    let text_path = tmp("t1.txt");
    std::fs::File::create(&text_path)
        .unwrap()
        .write_all(b"abracadabra_abracadabra_abracadabra")
        .unwrap();
    let index_path = tmp("t1.usix");

    let out = usi()
        .args([
            "build",
            text_path.to_str().unwrap(),
            "--k",
            "10",
            "--seed",
            "5",
            "-o",
            index_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let out = usi().args(["query", index_path.to_str().unwrap(), "abra", "zzz"]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2);
    // abra occurs 6 times; with unit weights, sum-of-sums = 6·4 = 24
    assert_eq!(lines[0].split('\t').collect::<Vec<_>>()[..3], ["abra", "6", "24"]);
    assert_eq!(lines[1].split('\t').collect::<Vec<_>>()[..2], ["zzz", "0"]);
}

#[test]
fn build_with_weights_file() {
    let text_path = tmp("t2.txt");
    std::fs::File::create(&text_path).unwrap().write_all(b"abab").unwrap();
    let weights_path = tmp("t2.weights");
    std::fs::File::create(&weights_path).unwrap().write_all(b"1.0 2.0 3.0 4.0").unwrap();
    let index_path = tmp("t2.usix");
    let out = usi()
        .args([
            "build",
            text_path.to_str().unwrap(),
            "--weights",
            weights_path.to_str().unwrap(),
            "--k",
            "3",
            "-o",
            index_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // "ab" occurs at 0 (1+2=3) and 2 (3+4=7): U = 10
    let out = usi().args(["query", index_path.to_str().unwrap(), "ab"]).output().unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(stdout.trim().split('\t').collect::<Vec<_>>()[..3], ["ab", "2", "10"]);
}

#[test]
fn stats_and_topk_and_tradeoff() {
    let text_path = tmp("t3.txt");
    std::fs::File::create(&text_path).unwrap().write_all(&b"banana".repeat(20)).unwrap();
    let index_path = tmp("t3.usix");
    assert!(usi()
        .args([
            "build",
            text_path.to_str().unwrap(),
            "--tau",
            "10",
            "-o",
            index_path.to_str().unwrap(),
        ])
        .status()
        .unwrap()
        .success());

    let out = usi().args(["stats", index_path.to_str().unwrap()]).output().unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("n\t120"));
    assert!(stdout.contains("cached substrings"));

    let out = usi().args(["topk", text_path.to_str().unwrap(), "--k", "3"]).output().unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(stdout.lines().count(), 3);
    // most frequent single letters of banana^20: a (60), n (40), b (20)
    assert!(stdout.lines().next().unwrap().starts_with("60\ta"));

    let out =
        usi().args(["tradeoff", text_path.to_str().unwrap(), "--points", "4"]).output().unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.lines().next().unwrap().contains("tau"));
    assert!(stdout.lines().count() >= 2);
}

#[test]
fn ingest_appends_replays_and_matches_scratch_build() {
    use std::process::Stdio;
    let text_path = tmp("t4.txt");
    std::fs::File::create(&text_path).unwrap().write_all(b"abcabcabc").unwrap();
    let base_path = tmp("t4-base.usix");
    assert!(usi()
        .args([
            "build",
            text_path.to_str().unwrap(),
            "--k",
            "8",
            "--seed",
            "42",
            "-o",
            base_path.to_str().unwrap(),
        ])
        .status()
        .unwrap()
        .success());

    // interactive session: append twice, query once
    let wal_path = tmp("t4.usil");
    let _ = std::fs::remove_file(&wal_path);
    let mut child = usi()
        .args([
            "ingest",
            base_path.to_str().unwrap(),
            "--wal",
            wal_path.to_str().unwrap(),
            "--seal-threshold",
            "4",
            "--compact-fanout",
            "2",
            "--json",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"append abc\nappendw 1 abc\nquery abc\nstats\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    // "abc" occurs 5 times in "abcabcabc" + "abcabc": U = 5·3 = 15
    assert!(
        stdout.contains(r#"{"pattern":"abc","occurrences":5,"value":15"#),
        "unexpected ingest output:\n{stdout}"
    );
    assert!(stdout.contains("n\t15"), "stats must report the grown length:\n{stdout}");

    // crash-recovery mode: replay the WAL, answers must match a
    // from-scratch build over the concatenated text
    let out = usi()
        .args([
            "ingest",
            base_path.to_str().unwrap(),
            "--wal",
            wal_path.to_str().unwrap(),
            "--replay",
            "--query",
            "abc",
            "--query",
            "cab",
            "--json",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let replayed = String::from_utf8(out.stdout).unwrap();

    let full_path = tmp("t4-full.txt");
    std::fs::File::create(&full_path).unwrap().write_all(b"abcabcabcabcabc").unwrap();
    let full_index = tmp("t4-full.usix");
    assert!(usi()
        .args([
            "build",
            full_path.to_str().unwrap(),
            "--k",
            "8",
            "--seed",
            "42",
            "-o",
            full_index.to_str().unwrap(),
        ])
        .status()
        .unwrap()
        .success());
    // compare pattern/occurrences/value line by line (the `source` field
    // may legitimately differ between the segmented and monolithic index)
    let scratch = json_answers(&full_index, &["abc", "cab"]);
    assert_eq!(replayed.lines().map(strip_source).collect::<Vec<_>>(), scratch);
    assert_eq!(scratch.len(), 2);
}

/// A `--json` answer line without its `source` field (cached vs
/// computed), which differs between equally correct indexes.
fn strip_source(line: &str) -> String {
    line.split(r#","source""#).next().unwrap_or_default().to_string()
}

/// `usi query --json` answers for `patterns`, one [`strip_source`]d
/// line per pattern.
fn json_answers(index: &std::path::Path, patterns: &[&str]) -> Vec<String> {
    let out =
        usi().args(["query", "--json", index.to_str().unwrap()]).args(patterns).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).unwrap().lines().map(strip_source).collect()
}

#[test]
fn approx_build_answers_like_exact_build() {
    let text_path = tmp("approx.txt");
    std::fs::write(&text_path, b"abracadabra_abracadabra_abracadabra").unwrap();
    let build = |extra: &[&str], out_name: &str| {
        let index_path = tmp(out_name);
        let out = usi()
            .args(["build", text_path.to_str().unwrap(), "--k", "12", "--seed", "42"])
            .args(extra)
            .args(["-o", index_path.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        index_path
    };
    let exact = build(&[], "approx-exact.usix");
    let approx = build(&["--approx", "3"], "approx-s3.usix");
    let patterns = ["abra", "cad", "zzz"];
    // Only occurrences and value are compared: the sampler may leave a
    // pattern uncached (`computed`) that the exact build caches.
    let want = [
        r#"{"pattern":"abra","occurrences":6,"value":24"#,
        r#"{"pattern":"cad","occurrences":3,"value":9"#,
        r#"{"pattern":"zzz","occurrences":0,"value":0"#,
    ];
    assert_eq!(json_answers(&approx, &patterns), want);
    assert_eq!(json_answers(&exact, &patterns), want);

    let out = usi()
        .args(["build", text_path.to_str().unwrap(), "--approx", "x"])
        .args(["-o", tmp("approx-bad.usix").to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad --approx"));
}

#[test]
fn bad_usage_exits_nonzero() {
    assert!(!usi().args(["frobnicate"]).status().unwrap().success());
    assert!(!usi().args(["build"]).status().unwrap().success());
    assert!(!usi().args(["query", "/nonexistent/file.usix", "a"]).status().unwrap().success());
    assert!(!usi().args(["ingest", "/nonexistent/file.usix"]).status().unwrap().success());
}

#[test]
fn corrupted_index_rejected() {
    let bogus = tmp("bogus.usix");
    std::fs::File::create(&bogus).unwrap().write_all(b"not an index").unwrap();
    let out = usi().args(["query", bogus.to_str().unwrap(), "a"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("load failed"));
}

#[test]
fn inspect_validates_and_mmap_query_matches_owned() {
    let text_path = tmp("t9.txt");
    std::fs::File::create(&text_path)
        .unwrap()
        .write_all(b"abracadabra_abracadabra_abracadabra")
        .unwrap();
    let index_path = tmp("t9.usix");
    let out = usi()
        .args([
            "build",
            text_path.to_str().unwrap(),
            "--k",
            "10",
            "--seed",
            "5",
            "-o",
            index_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // inspect: header, section sizes, checksum status
    let out = usi().args(["inspect", index_path.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("status\tvalid"), "{stdout}");
    assert!(stdout.contains("format\tUSIX v1"), "{stdout}");
    assert!(stdout.contains("crc32\t0x"), "{stdout}");
    assert!(stdout.contains("n\t35"), "{stdout}");
    assert!(stdout.contains("section bytes\t"), "{stdout}");

    // --mmap answers are identical to the owned load's
    let owned =
        usi().args(["query", index_path.to_str().unwrap(), "abra", "cad", "zzz"]).output().unwrap();
    let mapped = usi()
        .args(["query", "--mmap", index_path.to_str().unwrap(), "abra", "cad", "zzz"])
        .output()
        .unwrap();
    assert!(mapped.status.success(), "{}", String::from_utf8_lossy(&mapped.stderr));
    assert_eq!(owned.stdout, mapped.stdout);

    // a truncated file is reported corrupt with a nonzero exit
    let bytes = std::fs::read(&index_path).unwrap();
    let broken_path = tmp("t9-broken.usix");
    std::fs::write(&broken_path, &bytes[..bytes.len() - 5]).unwrap();
    let out = usi().args(["inspect", broken_path.to_str().unwrap()]).output().unwrap();
    assert!(!out.status.success(), "truncated file must fail inspection");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("status\tcorrupt"), "{stdout}");
}
