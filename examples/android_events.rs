//! Android-style event handling (§4.2): handlers on one dispatcher are
//! serialized by an implicit global lock, so they never race with each
//! other — but they do race with background threads.
//!
//! Run with: `cargo run --example android_events`

use o2::prelude::*;

const APP: &str = r#"
    class Prefs { field theme; }
    class State { }
    // Two UI event handlers on the main-thread dispatcher.
    class ThemePicker impl EventHandler {
        field prefs;
        method <init>(p) { this.prefs = p; }
        method handleEvent(e) {
            p = this.prefs;
            p.theme = e;          // UI write
        }
    }
    class Renderer impl EventHandler {
        field prefs;
        method <init>(p) { this.prefs = p; }
        method handleEvent(e) {
            p = this.prefs;
            t = p.theme;          // UI read — serialized with the write
        }
    }
    // A background sync thread touching the same preferences.
    class SyncTask impl Runnable {
        field prefs;
        method <init>(p) { this.prefs = p; }
        method run() {
            p = this.prefs;
            p.theme = p;          // RACE: background write vs UI handlers
        }
    }
    class Main {
        static method main() {
            prefs = new Prefs();
            picker = new ThemePicker(prefs);
            renderer = new Renderer(prefs);
            ev = new State();
            picker.handleEvent(ev);
            renderer.handleEvent(ev);
            sync_task = new SyncTask(prefs);
            sync_task.start();
        }
    }
"#;

fn main() {
    let analyzer = O2Builder::new().build();
    let program = o2_ir::parser::parse(APP).expect("valid program");
    let report = analyzer.analyze(&program);

    println!("== Android events meet threads ==\n");
    println!("origins:");
    for (id, data) in report.pta.arena.origins() {
        println!("  origin {}: {}", id.0, data.kind);
    }

    println!(
        "\nraces found: {} (event-vs-event on the same dispatcher is \
         serialized; only the background thread races)",
        report.num_races()
    );
    print!("{}", report.races.render(&program));
    for race in &report.races.races {
        let kinds = (
            report.pta.arena.origin_data(race.a.origin).kind,
            report.pta.arena.origin_data(race.b.origin).kind,
        );
        println!("  participants: {} vs {}", kinds.0, kinds.1);
    }

    // Turning the §4.2 dispatcher lock off shows what a naive event model
    // would report: the two UI handlers would falsely race.
    let no_dispatcher = O2Builder::new()
        .shb_config(ShbConfig {
            event_dispatcher_lock: false,
            ..Default::default()
        })
        .build()
        .analyze(&program);
    println!(
        "\nwithout the dispatcher lock (naive event model): {} races \
         (adds event-vs-event false positives)",
        no_dispatcher.num_races()
    );
}
