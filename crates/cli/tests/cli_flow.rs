//! End-to-end CLI flows exercised through the command functions.

use std::path::PathBuf;
use std::process::Command;

use gosh_core::store::EmbeddingStore;
use gosh_runtime::TempDir;

fn gosh_bin() -> PathBuf {
    // Cargo puts integration-test binaries in target/<profile>/deps; the
    // CLI binary sits one directory up.
    let mut p = std::env::current_exe().unwrap();
    p.pop();
    if p.ends_with("deps") {
        p.pop();
    }
    p.join("gosh")
}

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(gosh_bin())
        .args(args)
        .output()
        .expect("failed to run gosh binary");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.success(), text)
}

#[test]
fn generate_stats_coarsen_eval_flow() {
    let dir = TempDir::new("cli").unwrap();
    let graph = dir.join("g.csr");
    let graph_s = graph.to_str().unwrap();

    let (ok, text) = run(&["generate", "3000:6", graph_s]);
    assert!(ok, "{text}");
    assert!(text.contains("3000 vertices"));

    let (ok, text) = run(&["stats", graph_s]);
    assert!(ok, "{text}");
    assert!(text.contains("giant component"));

    let (ok, text) = run(&["coarsen", graph_s, "--threads", "2"]);
    assert!(ok, "{text}");
    assert!(text.contains("level 1:"));

    let emb = dir.join("g.emb");
    let (ok, text) = run(&[
        "embed",
        graph_s,
        emb.to_str().unwrap(),
        "--dim",
        "8",
        "--epochs",
        "20",
    ]);
    assert!(ok, "{text}");
    // The text file is the `.embin` rows to the format's 6 decimals:
    // header `n d`, then `v x_0 … x_{d-1}` per row.
    let store = EmbeddingStore::open(dir.join("g.embin")).unwrap();
    let text_file = std::fs::read_to_string(&emb).unwrap();
    let mut lines = text_file.lines();
    assert_eq!(lines.next(), Some("3000 8"));
    let mut row = vec![0.0f32; 8];
    for v in 0..3000u32 {
        let line = lines
            .next()
            .unwrap_or_else(|| panic!("no line for row {v}"));
        let mut fields = line.split(' ');
        assert_eq!(fields.next(), Some(v.to_string().as_str()), "{line}");
        store.decode_row(v, &mut row);
        let parsed: Vec<f64> = fields.map(|x| x.parse().unwrap()).collect();
        assert_eq!(parsed.len(), 8, "{line}");
        for (&x, &want) in parsed.iter().zip(&row) {
            assert!((x - want as f64).abs() <= 1e-6, "row {v}: {x} vs {want}");
        }
    }
    assert_eq!(lines.next(), None);

    let (ok, text) = run(&[
        "eval", graph_s, "--dim", "8", "--epochs", "40", "--preset", "fast",
    ]);
    assert!(ok, "{text}");
    assert!(text.contains("AUCROC"));
}

/// A failed write names the file and exits non-zero without a panic.
/// The text file is written first, so its failure stops the run before
/// any `.embin` is attempted.
#[cfg(target_os = "linux")]
#[test]
fn write_errors_name_the_output_file() {
    let dir = TempDir::new("cli-full").unwrap();
    let graph = dir.join("g.csr");
    let graph_s = graph.to_str().unwrap();
    let (ok, text) = run(&["generate", "300:4", graph_s]);
    assert!(ok, "{text}");

    let out = Command::new(gosh_bin())
        .args(["embed", graph_s, "/dev/full", "--dim", "4", "--epochs", "2"])
        .output()
        .expect("failed to run gosh binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("writing /dev/full: "), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!stderr.contains(".embin"), "{stderr}");
}

#[test]
fn bad_inputs_fail_cleanly() {
    // There is no `bench-*` command family: `benchmark/` measures performance.
    for command in ["bogus-command", "bench-train"] {
        let (ok, text) = run(&[command]);
        assert!(!ok);
        assert!(text.contains("unknown command"), "{text}");
        assert!(text.contains("USAGE"), "{text}");
    }

    let (ok, text) = run(&["generate", "not-a-spec", "/tmp/never.csr"]);
    assert!(!ok);
    assert!(text.contains("neither a suite dataset"));

    let (ok, text) = run(&["stats", "/definitely/missing/file.txt"]);
    assert!(!ok);
    assert!(text.contains("loading"));

    let (ok, text) = run(&["embed", "--dim"]);
    assert!(!ok);
    assert!(text.contains("expects a value"));

    // There is no multi-node trainer: `embed --backend cpu --threads N`
    // trains on N cores.
    let (ok, text) = run(&["train", "g.txt", "out.emb"]);
    assert!(!ok);
    assert!(text.contains("unknown command `train`"), "{text}");
    assert!(text.contains("USAGE"), "{text}");
    let (ok, text) = run(&["eval", "g.txt", "--nodes", "2"]);
    assert!(!ok);
    assert!(text.contains("unknown flag --nodes"), "{text}");
}

#[test]
fn flag_validation_catches_typos_and_misuse() {
    // An unknown flag must error, not be silently swallowed — the classic
    // trap was `--epoch 100` doing nothing.
    let (ok, text) = run(&["embed", "g.csr", "out.emb", "--epoch", "100"]);
    assert!(!ok);
    assert!(text.contains("unknown flag --epoch"), "{text}");
    assert!(text.contains("--epochs"), "should list known flags: {text}");

    // A flag directly followed by another flag must not consume it.
    let (ok, text) = run(&["embed", "g.csr", "out.emb", "--dim", "--epochs", "10"]);
    assert!(!ok);
    assert!(text.contains("expects a value"), "{text}");

    // A flag from another command's vocabulary is rejected by name.
    let (ok, text) = run(&["stats", "g.csr", "--dim", "8"]);
    assert!(!ok);
    assert!(text.contains("unknown flag --dim"), "{text}");

    // `--threads 0` is a usage error, named before any file is read,
    // on every command that takes the flag.
    for args in [
        &["stats", "g.csr"][..],
        &["convert", "g.txt", "g.csr"],
        &["coarsen", "g.txt"],
        &["embed", "g.txt", "out.emb"],
        &["eval", "g.txt"],
        &["update", "g.txt", "d.txt", "m.embin", "out.emb"],
        &["serve", "m.embin"],
    ] {
        let (ok, text) = run(&[args, &["--threads", "0"]].concat());
        assert!(!ok, "{args:?}: {text}");
        assert!(
            text.contains("--threads must be at least 1"),
            "{args:?}: {text}"
        );
        assert!(!text.contains("panicked"), "{args:?}: {text}");
    }

    // Out-of-range numbers are usage errors naming the flag, raised
    // before any file is read (`g.txt` does not exist).
    let embed = &["embed", "g.txt", "out.emb"][..];
    let eval = &["eval", "g.txt"][..];
    let update = &["update", "g.txt", "d.txt", "m.embin", "out.emb"][..];
    for (command, flag, value) in [
        (embed, "--dim", "0"),
        (embed, "--dim", "16777217"),
        (eval, "--dim", "0"),
        (embed, "--device-mb", "0"),
        (eval, "--device-mb", "0"),
        (update, "--epoch-scale", "-1"),
        (update, "--epoch-scale", "0"),
        (update, "--epoch-scale", "nan"),
        (update, "--epoch-scale", "inf"),
        (update, "--fallback-fraction", "-3"),
        (update, "--fallback-fraction", "1.5"),
        (update, "--fallback-fraction", "nan"),
    ] {
        let args = [command, &[flag, value]].concat();
        let (ok, text) = run(&args);
        assert!(!ok, "{args:?}: {text}");
        assert!(text.contains(&format!("{flag} must")), "{args:?}: {text}");
        assert!(!text.contains("loading"), "{args:?}: {text}");
        assert!(!text.contains("panicked"), "{args:?}: {text}");
    }
}

#[test]
fn equals_form_flags_work_end_to_end() {
    let dir = TempDir::new("cli-eq").unwrap();
    let graph = dir.join("g.csr");
    let graph_s = graph.to_str().unwrap();
    let (ok, text) = run(&["generate", "500:5", graph_s, "--seed=7"]);
    assert!(ok, "{text}");
    let emb = dir.join("g.emb");
    let (ok, text) = run(&[
        "embed",
        graph_s,
        emb.to_str().unwrap(),
        "--dim=8",
        "--epochs=10",
        "--backend=cpu",
    ]);
    assert!(ok, "{text}");
    let first_line = std::fs::read_to_string(&emb).unwrap();
    assert!(first_line.starts_with("500 8"), "{first_line}");
}

#[test]
fn convert_round_trips_formats_and_original_ids() {
    let dir = TempDir::new("cli-cv").unwrap();

    // A SNAP-style text file with sparse ids, a weight column, a self
    // loop, and a duplicate line.
    let txt = dir.join("g.txt");
    std::fs::write(
        &txt,
        "# snap-ish\n9000001 17\n17 400 2.5\n400 9000001\n400 400\n17 400\n",
    )
    .unwrap();
    let txt_s = txt.to_str().unwrap();

    // stats on a text file reports the ingestion counts.
    let (ok, text) = run(&["stats", txt_s, "--threads", "2"]);
    assert!(ok, "{text}");
    assert!(text.contains("self loops dropped 1"), "{text}");
    assert!(text.contains("duplicates dropped 1"), "{text}");
    assert!(text.contains("weighted lines  1"), "{text}");

    // Text -> text preserves original ids.
    let txt2 = dir.join("g2.txt");
    let (ok, text) = run(&["convert", txt_s, txt2.to_str().unwrap(), "--threads", "2"]);
    assert!(ok, "{text}");
    assert!(text.contains("original ids preserved"), "{text}");
    assert!(
        text.contains("1 self loops, 1 duplicate edges dropped"),
        "{text}"
    );
    let round = std::fs::read_to_string(&txt2).unwrap();
    assert!(round.contains("9000001"), "ids were relabelled: {round}");

    // Text -> binary -> text flows through both loaders.
    let csr = dir.join("g.csr");
    let (ok, text) = run(&["convert", txt_s, csr.to_str().unwrap()]);
    assert!(ok, "{text}");
    let txt3 = dir.join("g3.txt");
    let (ok, text) = run(&["convert", csr.to_str().unwrap(), txt3.to_str().unwrap()]);
    assert!(ok, "{text}");
    assert!(!text.contains("original ids preserved"), "{text}");
    let (ok, text) = run(&["stats", csr.to_str().unwrap()]);
    assert!(ok, "{text}");
    assert!(text.contains("vertices        3"), "{text}");

    let (ok, text) = run(&["convert", txt_s]);
    assert!(!ok);
    assert!(text.contains("missing <output file>"), "{text}");
}

#[test]
fn backend_flag_selects_engines() {
    let dir = TempDir::new("cli-be").unwrap();
    let graph = dir.join("g.csr");
    let graph_s = graph.to_str().unwrap();
    let (ok, text) = run(&["generate", "600:5", graph_s]);
    assert!(ok, "{text}");

    for backend in ["cpu", "gpu"] {
        let emb = dir.join(format!("g_{backend}.emb"));
        let (ok, text) = run(&[
            "embed",
            graph_s,
            emb.to_str().unwrap(),
            "--dim",
            "8",
            "--epochs",
            "10",
            "--backend",
            backend,
        ]);
        assert!(ok, "--backend {backend}: {text}");
        assert!(text.contains("CPU levels"), "{text}");
        if backend == "cpu" {
            // Every level off-device: the CPU level count is nonzero.
            // (Comma-anchored so "10 CPU levels" cannot false-match.)
            assert!(!text.contains(", 0 CPU levels"), "{text}");
        }
    }

    for bad in ["tpu", "auto"] {
        let (ok, text) = run(&["embed", graph_s, "/tmp/never.emb", "--backend", bad]);
        assert!(!ok);
        assert!(
            text.contains(&format!("unknown backend `{bad}` (cpu|gpu)")),
            "{text}"
        );
    }
}

#[test]
fn embed_serve_query_flow_over_tcp_loopback() {
    use std::io::BufRead;

    let dir = TempDir::new("cli-sv").unwrap();
    let graph = dir.join("g.csr");
    let graph_s = graph.to_str().unwrap();
    let (ok, text) = run(&["generate", "800:6", graph_s]);
    assert!(ok, "{text}");

    // embed writes the text artifact AND the lossless binary store.
    let emb = dir.join("g.emb");
    let (ok, text) = run(&[
        "embed",
        graph_s,
        emb.to_str().unwrap(),
        "--dim",
        "8",
        "--epochs",
        "10",
        "--precision",
        "i8",
    ]);
    assert!(ok, "{text}");
    let embin = dir.join("g.embin");
    assert!(text.contains("lossless"), "{text}");
    let header = std::fs::read(&embin).unwrap();
    assert_eq!(&header[..8], b"GOSHEMB1", "bad .embin magic");

    // Serve it on an OS-assigned loopback port; the bound address is on
    // the first line of stdout.
    let mut server = Command::new(gosh_bin())
        .args([
            "serve",
            embin.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--threads",
            "2",
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawning gosh serve");
    let mut stdout = std::io::BufReader::new(server.stdout.take().unwrap());
    let mut first_line = String::new();
    stdout.read_line(&mut first_line).unwrap();
    // Shape of the banner, as its readers take it apart: the address is
    // what follows the *last* " on " up to the first comma, and the rest
    // reports the list count of the index being built.
    // `serving g.embin (800 x 8, i8) on 127.0.0.1:4242, 29 IVF lists (building)`
    let (_, tail) = first_line
        .rsplit_once(" on ")
        .unwrap_or_else(|| panic!("no address in serve banner: {first_line}"));
    let (addr, rest) = tail.split_once(',').expect("list count after the address");
    assert!(addr.parse::<std::net::SocketAddr>().is_ok(), "{first_line}");
    assert_eq!(rest.trim(), "29 IVF lists (building)", "{first_line}");

    // An IVF query straight after the banner waits for the index; exact
    // top-k answers too, and the server reports the build on a second line.
    let (ok, text) = run(&[
        "query",
        embin.to_str().unwrap(),
        "--addr",
        addr,
        "--ids",
        "3",
        "--nprobe",
        "4",
    ]);
    assert!(ok, "{text}");
    assert!(text.contains("ivf nprobe 4"), "{text}");
    let mut ready = String::new();
    stdout.read_line(&mut ready).unwrap();
    // `IVF index ready: 29 lists built in 0.002 s`
    let built = ready
        .trim_end()
        .strip_prefix("IVF index ready: 29 lists built in ")
        .and_then(|s| s.strip_suffix(" s"))
        .unwrap_or_else(|| panic!("no ready line after the banner: {ready}"));
    assert!(built.parse::<f64>().is_ok(), "{ready}");
    let (ok, text) = run(&[
        "query",
        embin.to_str().unwrap(),
        "--addr",
        addr,
        "--ids",
        "0,5,17",
        "--k",
        "4",
        "--shutdown",
        "true",
    ]);
    assert!(ok, "{text}");
    assert!(text.contains("0 ->") && text.contains("17 ->"), "{text}");
    assert!(text.contains("(exact)"), "{text}");
    assert!(text.contains("server shut down"), "{text}");
    let status = server.wait().expect("server exit");
    assert!(status.success(), "serve exited with {status}");

    // A corrupted store is refused at startup, not served.
    let mut bytes = std::fs::read(&embin).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    let bad = dir.join("bad.embin");
    std::fs::write(&bad, &bytes).unwrap();
    let (ok, text) = run(&["serve", bad.to_str().unwrap()]);
    assert!(!ok);
    assert!(text.contains("checksum"), "{text}");
}

#[test]
fn help_prints_usage() {
    let (ok, text) = run(&["--help"]);
    assert!(ok);
    assert!(text.contains("USAGE"));
}
