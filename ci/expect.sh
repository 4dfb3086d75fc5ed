# expect N CMD...: run CMD; fail the step unless it exits with status N
# (0 clean, 1 violations found, 2 error).  A CI step sources this file:
#   . ci/expect.sh
expect() { local want=$1 got=0; shift; "$@" || got=$?; [ "$got" -eq "$want" ] || { echo "exit $got, wanted $want: $*" >&2; exit 1; }; }
