fn main() -> std::process::ExitCode {
    pp_bench::run::main_as("e13_full_stack")
}
